"""Ray Data batch transforms: stateless functions and callable classes
passed to ``Dataset.map_batches`` (as tasks, or as actor pools where a
stage keeps state), and the partition folds passed to
``util.partitioned_group_map``."""
