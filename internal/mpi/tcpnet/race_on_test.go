//go:build race

package tcpnet

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
