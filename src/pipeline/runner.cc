#include "src/pipeline/runner.h"

#include <chrono>
#include <thread>

#include "src/util/cpu_timer.h"

namespace plumber {

RunResult RunIterator(IteratorBase* iterator, const RunOptions& options,
                      const RunHooks& hooks) {
  RunResult result;
  Element element;
  const auto should_stop = [&] {
    return hooks.should_stop && hooks.should_stop();
  };
  // Warmup (not measured).
  for (int64_t i = 0; i < options.warmup_batches; ++i) {
    if (should_stop()) return result;
    bool end = false;
    result.status = iterator->GetNext(&element, &end);
    if (!result.status.ok() || end) {
      result.reached_end = end;
      return result;
    }
  }
  if (options.warmup_seconds > 0) {
    const int64_t warm_deadline =
        WallNanos() + static_cast<int64_t>(options.warmup_seconds * 1e9);
    while (WallNanos() < warm_deadline) {
      if (should_stop()) return result;
      bool end = false;
      result.status = iterator->GetNext(&element, &end);
      if (!result.status.ok() || end) {
        result.reached_end = end;
        return result;
      }
      if (options.model_step_seconds > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.model_step_seconds));
      }
    }
  }
  const int64_t start_wall = WallNanos();
  const int64_t start_cpu = ProcessCpuNanos();
  const int64_t deadline =
      options.max_seconds > 0
          ? start_wall + static_cast<int64_t>(options.max_seconds * 1e9)
          : 0;
  int64_t next_latency_total = 0;
  for (;;) {
    if (options.max_batches > 0 && result.batches >= options.max_batches) {
      break;
    }
    if (deadline > 0 && WallNanos() >= deadline) break;
    if (should_stop()) break;
    bool end = false;
    const int64_t t0 = WallNanos();
    result.status = iterator->GetNext(&element, &end);
    next_latency_total += WallNanos() - t0;
    if (!result.status.ok()) break;
    if (end) {
      result.reached_end = true;
      break;
    }
    ++result.batches;
    result.elements += static_cast<int64_t>(element.components.size());
    if (hooks.on_batch) hooks.on_batch(result.batches, result.elements);
    if (options.model_step_seconds > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.model_step_seconds));
    }
  }
  result.wall_seconds = (WallNanos() - start_wall) * 1e-9;
  result.process_cpu_seconds = (ProcessCpuNanos() - start_cpu) * 1e-9;
  if (result.wall_seconds > 0) {
    result.batches_per_second = result.batches / result.wall_seconds;
    result.elements_per_second = result.elements / result.wall_seconds;
    result.mean_cores_used =
        result.process_cpu_seconds / result.wall_seconds;
  }
  if (result.batches > 0) {
    result.mean_next_latency_seconds =
        next_latency_total * 1e-9 / result.batches;
  }
  return result;
}

RunResult RunPipeline(Pipeline& pipeline, const RunOptions& options) {
  auto iterator_or = pipeline.MakeIterator();
  if (!iterator_or.ok()) {
    RunResult result;
    result.status = iterator_or.status();
    return result;
  }
  auto iterator = std::move(iterator_or).value();
  return RunIterator(iterator.get(), options);
}

}  // namespace plumber
