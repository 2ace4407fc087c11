package xfer

// ChunkBytes exposes the size from which band ranges move in chunks.
const ChunkBytes = chunkBytes
