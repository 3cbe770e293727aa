// Dataset / Iterator abstractions (the tf.data execution model).
//
// A Dataset is the declarative object built from a GraphDef node; at
// runtime it is unrolled into a tree of Iterators that pull data from
// their children recursively (paper Fig. 2). Iterators implement the
// standard iterator-model contract: construction = Open, GetNext =
// Next, destruction = Close.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/io/sim_filesystem.h"
#include "src/pipeline/element.h"
#include "src/pipeline/graph_def.h"
#include "src/pipeline/iterator_stats.h"
#include "src/pipeline/parallelism_governor.h"
#include "src/pipeline/udf.h"
#include "src/util/status.h"

namespace plumber {

inline constexpr int64_t kInfiniteCardinality = -1;
inline constexpr int64_t kUnknownCardinality = -2;

// Shared runtime context: filesystem, UDF registry, stats sink, machine
// speed scaling, cancellation, and tracing control. Owned by Pipeline;
// outlives all datasets/iterators created with it.
struct PipelineContext {
  SimFilesystem* fs = nullptr;
  const UdfRegistry* udfs = nullptr;
  StatsRegistry* stats = nullptr;
  // Multiplies every UDF's CPU cost; models slower/faster cores.
  double cpu_scale = 1.0;
  uint64_t seed = 42;
  // When false, CPU accounting scopes are skipped (the paper's
  // "tracing disabled" baseline for overhead measurements).
  bool tracing_enabled = true;
  // 0 = unlimited. Cache datasets fail with ResourceExhausted if
  // materialization would exceed this.
  uint64_t memory_budget_bytes = 0;
  // Disk-tier cache scratch: serve-path reads of a disk-tier cache
  // (kAttrCacheTier = "disk") are charged against this device's token
  // bucket at the modeled SSD bandwidth. Null = disk caches run
  // unmetered (and un-budgeted when scratch_budget_bytes = 0).
  StorageDevice* scratch_device = nullptr;
  uint64_t scratch_budget_bytes = 0;
  // Per-shard source devices: readers under a shard-stamped source
  // (kAttrShardIndex) open their record streams against
  // shard_devices->DeviceFor(shard) so every shard gets its own
  // modeled disk. Null = all reads go through fs->device().
  ShardDevicePool* shard_devices = nullptr;
  // This host's NIC (a StorageDevice built from MachineSpec::nic):
  // remote_read charges every record's bytes through it (the receive
  // side of the wire), in addition to the remote endpoint's NIC. Null =
  // the local endpoint is unmetered, matching machines that never set
  // MachineSpec::nic.
  StorageDevice* nic = nullptr;
  // The largest claim a worker pool sizes: how many elements one worker
  // takes from its input and hands off per lock acquisition (see
  // src/pipeline/worker_pool.h). 1 is element-at-a-time execution.
  // Never changes which elements are produced.
  int max_claim = 64;
  // Live parallelism control (multi-tenant execution). When set,
  // worker-pool iterators register resize listeners and honor published
  // per-node targets; null means worker counts are fixed at
  // instantiation from the graph attrs (the classic single-tenant
  // engine, zero overhead).
  GovernorPtr governor;
  std::shared_ptr<std::atomic<bool>> cancelled =
      std::make_shared<std::atomic<bool>>(false);

  bool is_cancelled() const {
    return cancelled->load(std::memory_order_relaxed);
  }
};

class IteratorBase {
 public:
  IteratorBase(PipelineContext* ctx, IteratorStats* stats)
      : ctx_(ctx), stats_(stats) {}
  virtual ~IteratorBase() = default;

  IteratorBase(const IteratorBase&) = delete;
  IteratorBase& operator=(const IteratorBase&) = delete;

  // Yields the next element or sets *end_of_sequence. Thread-compatible
  // (callers serialize access; parallel ops serialize child pulls).
  Status GetNext(Element* out, bool* end_of_sequence);

  // Appends up to `max_elements` elements to *out in one call — one
  // cancellation check and one CPU-accounting scope for the whole
  // batch. May return elements AND set *end_of_sequence when the
  // source is exhausted mid-batch; *end_of_sequence with an empty
  // append means exhaustion. Same serialization contract as GetNext.
  Status GetNextBatch(std::vector<Element>* out, size_t max_elements,
                      bool* end_of_sequence);

  IteratorStats* stats() const { return stats_; }

 protected:
  virtual Status GetNextInternal(Element* out, bool* end_of_sequence) = 0;

  // Default: loops GetNextInternal. Queue-backed iterators override to
  // drain whole batches per queue lock.
  virtual Status GetNextBatchInternal(std::vector<Element>* out,
                                      size_t max_elements,
                                      bool* end_of_sequence);

  PipelineContext* ctx_;
  IteratorStats* stats_;
};

class DatasetBase : public std::enable_shared_from_this<DatasetBase> {
 public:
  DatasetBase(NodeDef def, std::vector<std::shared_ptr<DatasetBase>> inputs)
      : def_(std::move(def)), inputs_(std::move(inputs)) {}
  virtual ~DatasetBase() = default;

  const NodeDef& def() const { return def_; }
  const std::string& name() const { return def_.name; }
  const std::string& op() const { return def_.op; }
  const std::vector<std::shared_ptr<DatasetBase>>& inputs() const {
    return inputs_;
  }

  virtual StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const = 0;

  // Statically known output cardinality; kUnknownCardinality if it
  // cannot be derived without running.
  virtual int64_t Cardinality() const { return kUnknownCardinality; }

  // Marks any partially-filled materialization as complete so later
  // iterators behave as if a full epoch had already run. This is the
  // paper's §B steady-state simulation: "truncating the cached data"
  // lets a tracer or pick_best comparison observe warm-cache rates
  // without paying a whole cold epoch. Default: stateless, no-op.
  virtual void SimulateSteadyState() {}

 protected:
  IteratorStats* StatsFor(PipelineContext* ctx) const {
    return ctx->stats->GetOrCreate(def_.name, def_.op);
  }

  NodeDef def_;
  std::vector<std::shared_ptr<DatasetBase>> inputs_;
};

using DatasetPtr = std::shared_ptr<DatasetBase>;

// Instantiates the GraphDef into a dataset tree rooted at graph.output().
StatusOr<DatasetPtr> InstantiateGraph(const GraphDef& graph,
                                      PipelineContext* ctx);

}  // namespace plumber
