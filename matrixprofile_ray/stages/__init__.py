"""Ray Data batch transforms: stateless functions and callable classes
passed to ``Dataset.map_batches``, and the partition folds passed to
``util.partitioned_group_map``. A stage that holds only config (every
matrix-profile and discovery stage) is passed as a configured instance
and runs as tasks; only a stage with per-actor set-up (the ANN top-k's
normalized query matrix, the multimodal decoders) runs as an actor
pool."""
