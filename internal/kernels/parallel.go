package kernels

// elemChunksPerLane is how many chunks per worker elementwise kernels cut
// their range into: fine enough that a preempted worker can be covered by
// the others via the pool's atomic cursor, coarse enough that cursor
// traffic stays negligible.
const elemChunksPerLane = 4
