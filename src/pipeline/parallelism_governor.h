// ParallelismGovernor: live worker-count control for one pipeline.
//
// Multi-tenant execution (src/runtime/Executor) re-plans the machine's
// core budget whenever a job arrives or departs, and the new grants
// must reach pipelines that are already running — rewriting the
// GraphDef only helps the next instantiation. The governor is the
// channel: the executor publishes a per-node worker target with
// SetTarget, and every governed WorkerPool (src/pipeline/worker_pool.h:
// the parallel map and parallel interleave — each op whose parallelism
// the LP tunes) registers a resize listener and grows or parks its
// workers in place.
//
// A target also survives re-instantiation: iterators created later
// (e.g. per-epoch children under `repeat`) read Target() at
// construction, so a retargeted pipeline stays retargeted across
// epochs. Target 0 means "no override": use the graph-configured
// parallelism.
//
// Thread-safety: all methods are safe to call concurrently. Listeners
// run under the governor lock — they must not call back into the
// governor. Listener identity is a registration id, not the node name,
// because one node can briefly have two live iterators (the old
// epoch's being torn down while the new one registers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace plumber {

class ParallelismGovernor {
 public:
  // Publishes a live worker target for `node` (>= 1) and synchronously
  // invokes every listener registered for it. Target 0 clears the
  // override (listeners are told the graph-configured fallback the
  // iterator registered with).
  void SetTarget(const std::string& node, int target);

  // The published target for `node`; 0 if none.
  int Target(const std::string& node) const;

  // Snapshot of every live override (node -> target). The executor's
  // SLO preemption is observable here: a parked batch job shows its
  // floor targets while an interactive job is resident, and the map
  // empties again when the override is cleared on restore.
  std::map<std::string, int> Targets() const;

  // Registers a resize listener for `node`; returns a registration id
  // for Unregister. `configured` is the iterator's graph-configured
  // parallelism, reported back to the listener when a target is
  // cleared. The callback runs under the governor lock (possibly
  // concurrently with the caller's own threads, never after
  // Unregister returns).
  uint64_t Register(const std::string& node, int configured,
                    std::function<void(int)> on_resize);
  void Unregister(uint64_t id);

 private:
  struct Listener {
    std::string node;
    int configured = 1;
    std::function<void(int)> on_resize;
  };

  mutable std::mutex mu_;
  std::map<std::string, int> targets_;
  std::map<uint64_t, Listener> listeners_;
  uint64_t next_id_ = 1;
};

using GovernorPtr = std::shared_ptr<ParallelismGovernor>;

}  // namespace plumber
