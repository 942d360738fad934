package dist

// targetRowsPerShard is the shard granularity AdaptiveShards aims for: K
// grows past the executor count only while shards would still carry more
// rows than this, so small tables do not fragment into chatty slivers.
const targetRowsPerShard = 16384

// maxShardsPerExecutor caps the adaptive K at a small multiple of the
// executor count — enough requeue granularity that losing one node
// spreads its load across the survivors, not so much that frame overhead
// dominates the epoch.
const maxShardsPerExecutor = 4

// AdaptiveShards picks the partition count for a distributed run with no
// explicit shards knob: at least one shard per executor (every node
// works), growing in executor multiples while shards stay above
// targetRowsPerShard rows, capped at maxShardsPerExecutor×executors and
// maxK (the engine's shard ceiling).
func AdaptiveShards(rows, executors, maxK int) int {
	if executors < 1 {
		executors = 1
	}
	k := executors
	for k+executors <= maxShardsPerExecutor*executors && rows/(k+executors) >= targetRowsPerShard {
		k += executors
	}
	if k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	return k
}
