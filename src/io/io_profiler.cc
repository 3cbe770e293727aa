#include "src/io/io_profiler.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "src/util/cpu_timer.h"
#include "src/util/logging.h"

namespace plumber {

namespace {

// Read size per call.
constexpr uint64_t kChunkBytes = 1 << 16;

}  // namespace

double MeasureBandwidth(SimFilesystem* fs, const std::string& prefix,
                        int parallelism, double seconds) {
  const std::vector<std::string> files = fs->List(prefix);
  if (files.empty()) return 0;
  std::atomic<uint64_t> bytes{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(parallelism);
  const int64_t start = WallNanos();
  for (int t = 0; t < parallelism; ++t) {
    workers.emplace_back([&, t] {
      auto reader_or = fs->OpenRaw(files[t % files.size()]);
      if (!reader_or.ok()) return;
      auto reader = std::move(reader_or).value();
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t n = reader->Read(kChunkBytes, /*loop=*/true);
        if (n == 0) break;
        bytes.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed_s = (WallNanos() - start) * 1e-9;
  return elapsed_s > 0 ? bytes.load() / elapsed_s : 0;
}

IoProfileResult ProfileReadBandwidth(SimFilesystem* fs,
                                     const std::string& prefix,
                                     const IoProfileOptions& options) {
  std::vector<int> levels = options.parallelism_levels;
  if (levels.empty()) levels = {1, 2, 4, 8, 16};
  IoProfileResult result;
  for (int p : levels) {
    const double bw =
        MeasureBandwidth(fs, prefix, p, options.seconds_per_probe);
    result.parallelism_to_bandwidth.AddPoint(p, bw);
    PLOG(Debug) << "io_profile parallelism=" << p << " bw=" << bw / 1e6
                << " MB/s";
  }
  result.max_bandwidth = result.parallelism_to_bandwidth.MaxY();
  result.min_parallelism_for_max =
      result.parallelism_to_bandwidth.SaturationX();
  return result;
}

}  // namespace plumber
