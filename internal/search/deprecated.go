package search

// ShardedIndex is the former doc-sharded view of an Index, kept as an
// alias so the benchmark module still compiles.
//
// Deprecated: use *Index. A later benchmark-only change removes this
// alias together with Shard.
type ShardedIndex = Index

// Shard freezes ix and returns it. Both arguments are ignored: doc
// sharding is gone and every query runs through Index.Search.
//
// Deprecated: call Freeze and search ix directly. A later
// benchmark-only change removes this method together with ShardedIndex.
func (ix *Index) Shard(shards, workers int) (*Index, error) {
	ix.Freeze()
	return ix, nil
}
