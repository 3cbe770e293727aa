#include "src/api/job_handle.h"

namespace plumber {

const std::string& JobHandle::name() const {
  static const std::string kEmpty;
  return job_ != nullptr ? job_->name() : kEmpty;
}

JobPhase JobHandle::phase() const {
  return job_ != nullptr ? job_->phase() : JobPhase::kFailed;
}

void JobHandle::Cancel() const {
  if (job_ != nullptr) job_->Cancel();
}

StatusOr<RunReport> JobHandle::Wait() const {
  RETURN_IF_ERROR(status_);
  if (job_ == nullptr) {
    return FailedPreconditionError("empty JobHandle: nothing was submitted");
  }
  job_->Wait();
  const RunResult& result = job_->result();
  if (!job_->started()) {
    // Never ran: pipeline instantiation failed or the job was
    // cancelled while queued. There is no run to report on.
    return result.status.ok()
               ? CancelledError("job cancelled before admission")
               : result.status;
  }
  RunReport report;
  static_cast<RunResult&>(report) = result;
  report.queue_seconds = job_->queue_seconds();
  report.node_stats = job_->final_stats();
  if (const IteratorStatsSnapshot* root =
          report.FindNode(job_->output_node())) {
    report.bytes_produced = root->bytes_produced;
  }
  return report;
}

JobProgress JobHandle::Progress() const {
  if (job_ == nullptr) return JobProgress{};
  return job_->Progress();
}

}  // namespace plumber
