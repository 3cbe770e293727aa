// Operator factories. Each creates a DatasetBase for one GraphDef node.
// The op table in dataset.cc is the one record of every op's facts: its
// factory, its input count (checked once, by InstantiateGraph, before
// the factory runs) and the predicates at the end of this header.
//
// Supported ops, their inputs and their attributes:
//   range              count:int (-1 = infinite)
//   file_list          prefix:string (lists SimFilesystem files)
//   tfrecord           input: file_list; sequential record reader
//   remote_read        input: file_list; tfrecord semantics, but every
//                      record is also charged through the remote host's
//                      NIC (remote_nic_bandwidth/remote_nic_latency
//                      attrs) and this host's NIC (PipelineContext::nic)
//   interleave         input: file_list; cycle_length:int, block_length:int,
//                      parallelism:int — parallel record readers.
//                      One reader (interleave_op.cc) serves all three
//                      record ops: tfrecord and remote_read are an
//                      interleave cycle of one file and ignore these
//                      attrs
//   map                input; udf:string, parallelism:int (1 = sequential),
//                      deterministic:bool
//   filter             input; udf:string
//   shuffle            input; buffer_size:int, seed:int
//   shuffle_and_repeat input; buffer_size:int, seed:int, count:int
//   repeat             input; count:int (-1 = infinite)
//   take               input; count:int
//   skip               input; count:int
//   batch              input; batch_size:int, drop_remainder:bool
//   prefetch           input; buffer_size:int
//   cache              input; cache_tier:string ("memory" default |
//                      "disk"). Memory caches are bounded by the
//                      PipelineContext memory budget; disk caches by
//                      scratch_budget_bytes, and their serve path is
//                      metered through the modeled scratch device.
//   zip                2+ inputs; pairs one element from each per output
//   concatenate        2+ inputs; drains them in order
//   shard_merge        1+ inputs (one per source shard); merges them
//                      with one worker per shard, order nondeterministic
//                      (like parallel interleave)
#pragma once

#include "src/pipeline/dataset.h"

namespace plumber {

using DatasetFactory = StatusOr<DatasetPtr> (*)(NodeDef,
                                                std::vector<DatasetPtr>,
                                                PipelineContext*);

StatusOr<DatasetPtr> MakeRangeDataset(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext* ctx);
StatusOr<DatasetPtr> MakeFileListDataset(NodeDef def,
                                         std::vector<DatasetPtr> inputs,
                                         PipelineContext* ctx);
StatusOr<DatasetPtr> MakeTfRecordReader(NodeDef def,
                                        std::vector<DatasetPtr> inputs,
                                        PipelineContext* ctx);
StatusOr<DatasetPtr> MakeRemoteReader(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext* ctx);
StatusOr<DatasetPtr> MakeInterleaveReader(NodeDef def,
                                          std::vector<DatasetPtr> inputs,
                                          PipelineContext* ctx);
StatusOr<DatasetPtr> MakeMapDataset(NodeDef def,
                                    std::vector<DatasetPtr> inputs,
                                    PipelineContext* ctx);
StatusOr<DatasetPtr> MakeFilterDataset(NodeDef def,
                                       std::vector<DatasetPtr> inputs,
                                       PipelineContext* ctx);
StatusOr<DatasetPtr> MakeShuffleDataset(NodeDef def,
                                        std::vector<DatasetPtr> inputs,
                                        PipelineContext* ctx);
StatusOr<DatasetPtr> MakeShuffleAndRepeatDataset(NodeDef def,
                                                 std::vector<DatasetPtr> inputs,
                                                 PipelineContext* ctx);
StatusOr<DatasetPtr> MakeRepeatDataset(NodeDef def,
                                       std::vector<DatasetPtr> inputs,
                                       PipelineContext* ctx);
StatusOr<DatasetPtr> MakeTakeDataset(NodeDef def,
                                     std::vector<DatasetPtr> inputs,
                                     PipelineContext* ctx);
StatusOr<DatasetPtr> MakeSkipDataset(NodeDef def,
                                     std::vector<DatasetPtr> inputs,
                                     PipelineContext* ctx);
StatusOr<DatasetPtr> MakeBatchDataset(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext* ctx);
StatusOr<DatasetPtr> MakePrefetchDataset(NodeDef def,
                                         std::vector<DatasetPtr> inputs,
                                         PipelineContext* ctx);
StatusOr<DatasetPtr> MakeCacheDataset(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext* ctx);
StatusOr<DatasetPtr> MakeZipDataset(NodeDef def,
                                    std::vector<DatasetPtr> inputs,
                                    PipelineContext* ctx);
StatusOr<DatasetPtr> MakeConcatenateDataset(NodeDef def,
                                            std::vector<DatasetPtr> inputs,
                                            PipelineContext* ctx);
StatusOr<DatasetPtr> MakeShardMergeDataset(NodeDef def,
                                           std::vector<DatasetPtr> inputs,
                                           PipelineContext* ctx);

// Well-known attribute keys shared by the rewriter and the tuners.
inline constexpr char kAttrParallelism[] = "parallelism";
inline constexpr char kAttrBufferSize[] = "buffer_size";
inline constexpr char kAttrCycleLength[] = "cycle_length";
inline constexpr char kAttrUdf[] = "udf";
inline constexpr char kAttrCount[] = "count";
inline constexpr char kAttrBatchSize[] = "batch_size";
inline constexpr char kAttrPrefix[] = "prefix";
inline constexpr char kAttrSeed[] = "seed";
inline constexpr char kAttrDeterministic[] = "deterministic";
inline constexpr char kAttrBlockLength[] = "block_length";
inline constexpr char kAttrDropRemainder[] = "drop_remainder";
// When false, tuners must not touch this node's parallelism (models
// stages the framework cannot parallelize, e.g. sequential packing).
inline constexpr char kAttrTunable[] = "tunable";
// Traced per-core processing rate (minibatches/sec/core) recorded by
// the optimizer after a successful trace (rewriter::SetTracedRate).
// Consumed by the multi-job arbiter: DemandFromGraph prefers these
// measured rates over its uniform-rate fallback, so unequal-demand
// jobs get unequal water-fill shares (see src/core/multi_job_planner).
inline constexpr char kAttrTracedRate[] = "traced_rate";
// Cache placement tier chosen by the cache pass: absent or
// "memory" = DRAM materialization (the classic cache op), "disk" =
// materialize to the scratch tier and meter serves at its bandwidth.
inline constexpr char kAttrCacheTier[] = "cache_tier";
// Shard identity stamped by rewriter::ShardSource: which partition of
// the file list this source reads (i of shard_count, files taken
// round-robin), and how many partitions exist. FleetSession derives a
// locality pin from shard_index; readers under a sharded source meter
// against shard_devices->DeviceFor(shard_index).
inline constexpr char kAttrShardIndex[] = "shard_index";
inline constexpr char kAttrShardCount[] = "shard_count";
// remote_read's modeled remote endpoint: the serving host's NIC
// bandwidth (bytes/sec, 0 = unlimited) and fixed per-record latency
// (seconds). Attributes, not session state, so the remote environment
// travels with the serialized program.
inline constexpr char kAttrRemoteNicBandwidth[] = "remote_nic_bandwidth";
inline constexpr char kAttrRemoteNicLatency[] = "remote_nic_latency";

// Facts from the op table; false for unknown ops.
// True if the op kind supports a tunable `parallelism` attribute.
bool OpSupportsParallelism(const std::string& op);
// True if the op kind reads record files: tfrecord, remote_read and
// interleave, which one reader serves (interleave_op.cc).
bool OpReadsRecords(const std::string& op);
// True if the op kind's records also cross a modeled remote uplink
// (remote_read).
bool OpReadsRemote(const std::string& op);

}  // namespace plumber
