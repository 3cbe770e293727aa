// Flow: the fluent, value-semantic pipeline builder of the unified
// Plumber API (the paper's "one line of code" front door).
//
// A Flow is an immutable value describing a pipeline program bound to a
// Session (the environment: filesystem, UDFs, machine, seed). Each
// operator returns a new Flow; nodes are auto-named after their op
// ("map", "map_1", ...) so users never thread node names by hand, and
// Named() pins a stable name when one is wanted. A Flow appends every
// node through GraphBuilder, so it compiles to the same GraphDef the
// low-level builder produces and the tracer, rewriter, and planner
// layers see identical programs either way.
//
//   Flow flow = session.Files("train/")
//                   .Interleave(4)
//                   .Map("decode")
//                   .ShuffleAndRepeat(128)
//                   .Batch(32);
//   RunOptions window;
//   window.max_seconds = 1;
//   auto report    = flow.Run(window);
//   auto optimized = flow.Optimize();
//
// Errors (unknown session, name collisions, cross-session Zip) are
// deferred: the first failure is carried in the Flow and surfaced by
// Graph()/Run()/Optimize(), keeping chains unconditional.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/core/optimizer.h"
#include "src/core/tracer.h"
#include "src/pipeline/graph_builder.h"
#include "src/pipeline/runner.h"
#include "src/runtime/job.h"

namespace plumber {

class Session;
class JobHandle;
struct OptimizedFlow;

// Api-level alias for the submission options (see JobHandle in
// job_handle.h for the rest of the job vocabulary).
using JobOptions = runtime::JobOptions;

namespace internal {
struct SessionState;
}  // namespace internal

// The result of one job's run window (Flow::Run / JobHandle::Wait): its
// RunResult (throughput, latency and resource use over the measured
// window, wall_seconds) plus job timing and a per-node stats snapshot
// for diagnosis.
struct RunReport : RunResult {
  // The admission wait: Submit -> run start; ~0 unless the executor's
  // concurrency cap queued the job.
  double queue_seconds = 0;
  uint64_t bytes_produced = 0;  // bytes out of the root node
  std::vector<IteratorStatsSnapshot> node_stats;

  const IteratorStatsSnapshot* FindNode(const std::string& name) const;
};

class Flow {
 public:
  // An unbound Flow; using it reports FailedPrecondition. Real Flows
  // come from Session::Files/Range/FromGraph or Zip/Concatenate.
  Flow();

  // -- Operators (each appends one node and returns the new Flow) ----
  Flow TfRecord() const;
  Flow Interleave(int cycle_length, int parallelism = 1,
                  int block_length = 1) const;
  Flow Map(const std::string& udf, int parallelism = 1,
           bool deterministic = true) const;
  // A map stage the framework cannot parallelize (tunable=false).
  Flow SequentialMap(const std::string& udf) const;
  Flow Filter(const std::string& udf) const;
  Flow Shuffle(int64_t buffer_size, int64_t seed = 7) const;
  Flow ShuffleAndRepeat(int64_t buffer_size, int64_t count = -1,
                        int64_t seed = 11) const;
  Flow Repeat(int64_t count = -1) const;
  Flow Take(int64_t count) const;
  Flow Skip(int64_t count) const;
  Flow Batch(int64_t batch_size, bool drop_remainder = true) const;
  Flow Prefetch(int64_t buffer_size) const;
  Flow Cache() const;

  // Multi-input combinators. Input flows must share a Session; their
  // graphs are merged (common prefixes unified, colliding suffix names
  // renamed) under a new zip/concatenate root.
  static Flow Zip(const std::vector<Flow>& inputs);
  static Flow Concatenate(const std::vector<Flow>& inputs);

  // Renames the tip node (auto-named by default) for stable references,
  // e.g. .Map("decode").Named("decode"). Fails if the name is taken.
  Flow Named(const std::string& name) const;

  // -- Entry points --------------------------------------------------
  // Compiles to the low-level GraphDef (the escape hatch: hand this to
  // GraphBuilder-era tooling, the rewriter, or Pipeline::Create).
  StatusOr<GraphDef> Graph() const;

  // Blocking-run sugar over the async job API: exactly Submit(options)
  // + JobHandle::Wait(). The job goes through the session's shared
  // Executor like any other submission — run alone it owns the machine
  // and behaves as the classic single-tenant run (same RunReport, same
  // deterministic results); submitted alongside other jobs it shares
  // the modeled cores under the maximin arbiter. Honors
  // RunOptions.warmup_seconds (cache fill on the same iterator tree).
  StatusOr<RunReport> Run(const RunOptions& options) const;

  // Asynchronous execution: enqueue this flow as a job on the
  // session's shared Executor and return immediately. The handle
  // exposes Wait/Cancel/Progress and stays valid after the Session is
  // gone. Equivalent to Session::Submit(flow, options).
  JobHandle Submit(JobOptions options = {}) const;

  // Hands the pipeline to the Plumber optimizer. `options` holds only
  // tuning knobs (trace window, schedule, lp_options); every trace runs
  // on the Session's pipeline options, NIC included, and plans for the
  // Session's machine.
  StatusOr<OptimizedFlow> Optimize(OptimizeOptions options = {}) const;

  // Optimize with an explicit pass schedule, e.g.
  // "parallelism,prefetch,cache,parallelism,shard_sources". Pass names
  // are rows of OptimizerPasses(); unknown names are InvalidArgument.
  // An empty schedule runs no passes: the flow is traced once (so
  // traced_rate is measured) and returned unchanged.
  StatusOr<OptimizedFlow> OptimizeWith(const std::string& schedule,
                                       OptimizeOptions options = {}) const;

  // Traces the pipeline for a bounded window (paper §4.1).
  StatusOr<TraceSnapshot> Trace(double trace_seconds = 0.3) const;

  // Trace + model build: the per-Dataset resource-accounted rates the
  // interactive "explain-plan" workflow consumes.
  StatusOr<PipelineModel> Diagnose(double trace_seconds = 0.3) const;

  // Name of the tip (output) node; empty for unbound flows.
  const std::string& output_node() const { return tip_; }
  // First deferred construction error, if any.
  const Status& status() const { return status_; }

 private:
  friend class Session;

  // Flows share their Session's environment, so they stay valid across
  // Session moves and may even outlive the Session object.
  Flow(std::shared_ptr<internal::SessionState> state, GraphDef graph,
       std::string tip);
  // Wraps an optimizer result (from Optimize or PickBest) as an
  // OptimizedFlow bound to `state`, shared by Flow::Optimize and
  // Session::OptimizeBest.
  static OptimizedFlow MakeOptimizedFlow(
      std::shared_ptr<internal::SessionState> state, OptimizeResult result);
  // Appends one node through `add`, which is handed a builder over
  // this flow's graph and a fresh name auto-derived from `op`, and
  // returns the extended flow with that node as its tip.
  using AddFn =
      std::function<std::string(GraphBuilder&, const std::string& name)>;
  Flow Append(const std::string& op, const AddFn& add) const;
  static Flow Combine(const std::string& op,
                      const std::vector<Flow>& inputs);

  std::shared_ptr<internal::SessionState> state_;
  GraphDef graph_;
  std::string tip_;
  Status status_;
};

// An optimized program plus the optimizer's decisions, ready to run:
// the OptimizeResult and its rewritten graph as a Flow of the same
// Session.
struct OptimizedFlow : OptimizeResult {
  Flow flow;

  StatusOr<RunReport> Run(const RunOptions& options) const {
    return flow.Run(options);
  }
  StatusOr<GraphDef> Graph() const { return flow.Graph(); }
};

}  // namespace plumber
