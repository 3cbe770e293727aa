// remote_read op tests: element-for-element identity with a local
// tfrecord read at every claim cap and with a one-file interleave,
// byte-exact NIC accounting (wire bytes == device counters == per-node
// network_bytes stats), and the Session::AttachNic wiring, which
// Optimize's traces go through too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/api/session.h"
#include "src/io/sim_filesystem.h"
#include "src/io/storage_device.h"
#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::ExpectIdenticalOutput;
using testing_util::PipelineTestEnv;

constexpr int kNumFiles = 3;
constexpr int kRecordsPerFile = 10;
constexpr uint64_t kRecordBytes = 64;

GraphDef LocalGraph() {
  GraphBuilder b;
  return std::move(b.Build(b.TfRecord("rec", b.FileList("files", "data/"))))
      .value();
}

GraphDef RemoteGraph(double remote_bandwidth = 0, double remote_latency = 0) {
  GraphBuilder b;
  return std::move(b.Build(b.RemoteRead("rec", b.FileList("files", "data/"),
                                        remote_bandwidth, remote_latency)))
      .value();
}

TEST(RemoteReadTest, IdenticalToLocalReadAtEveryClaimCap) {
  for (int max_claim : {1, 2, 8, 64}) {
    PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
    PipelineOptions opts = env.Options();
    opts.max_claim = max_claim;
    auto local = Pipeline::Create(LocalGraph(), opts);
    ASSERT_TRUE(local.ok()) << local.status();
    auto remote = Pipeline::Create(RemoteGraph(), opts);
    ASSERT_TRUE(remote.ok()) << remote.status();
    const auto local_elems = Drain(**local);
    const auto remote_elems = Drain(**remote);
    ASSERT_EQ(local_elems.size(),
              static_cast<size_t>(kNumFiles * kRecordsPerFile))
        << "max_claim=" << max_claim;
    ExpectIdenticalOutput(local_elems, remote_elems);
  }
}

// tfrecord and remote_read are one-file cycles of the interleave
// reader: over one file list, all three yield the same elements in the
// same order and meter the same bytes.
TEST(RemoteReadTest, SameElementsAndBytesAsOneFileInterleave) {
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  GraphBuilder b;
  const GraphDef interleave =
      std::move(b.Build(b.Interleave("rec", b.FileList("files", "data/"),
                                     /*cycle_length=*/1, /*parallelism=*/1,
                                     /*block_length=*/1)))
          .value();
  std::vector<std::vector<Element>> outputs;
  std::vector<IteratorStatsSnapshot> readers;
  for (const GraphDef& graph : {LocalGraph(), RemoteGraph(), interleave}) {
    auto pipeline = Pipeline::Create(graph, env.Options());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    outputs.push_back(Drain(**pipeline));
    const auto snapshot = (*pipeline)->stats().Snapshot();
    const auto rec = std::find_if(
        snapshot.begin(), snapshot.end(),
        [](const IteratorStatsSnapshot& s) { return s.name == "rec"; });
    ASSERT_NE(rec, snapshot.end());
    readers.push_back(*rec);
  }
  ASSERT_EQ(outputs[0].size(),
            static_cast<size_t>(kNumFiles * kRecordsPerFile));
  ExpectIdenticalOutput(outputs[0], outputs[1]);
  ExpectIdenticalOutput(outputs[0], outputs[2]);
  const uint64_t wire_bytes = static_cast<uint64_t>(kNumFiles) *
                              kRecordsPerFile *
                              (kRecordBytes + kRecordFramingBytes);
  EXPECT_EQ(readers[0].bytes_read, wire_bytes);
  EXPECT_EQ(readers[1].bytes_read, wire_bytes);
  EXPECT_EQ(readers[2].bytes_read, wire_bytes);
  EXPECT_EQ(readers[1].network_bytes, readers[1].bytes_read);
  EXPECT_EQ(readers[0].network_bytes, 0u);
  EXPECT_EQ(readers[2].network_bytes, 0u);
}

TEST(RemoteReadTest, NicAccountingIsByteExact) {
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  StorageDevice local_nic(DeviceSpec::Unlimited());
  PipelineOptions opts = env.Options();
  opts.nic = &local_nic;
  auto pipeline = Pipeline::Create(RemoteGraph(), opts);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  const auto elems = Drain(**pipeline);
  const uint64_t records = static_cast<uint64_t>(elems.size());
  ASSERT_EQ(records, static_cast<uint64_t>(kNumFiles * kRecordsPerFile));
  // Every record crosses the wire once, framing included; the local
  // NIC's counters must equal the sum of transfer sizes exactly.
  const uint64_t wire_bytes = records * (kRecordBytes + kRecordFramingBytes);
  EXPECT_EQ(local_nic.total_bytes_read(), wire_bytes);
  EXPECT_EQ(local_nic.total_reads(), records);
  // The per-node stat agrees with the device.
  uint64_t stat_network_bytes = 0;
  for (const auto& s : (*pipeline)->stats().Snapshot()) {
    stat_network_bytes += s.network_bytes;
  }
  EXPECT_EQ(stat_network_bytes, wire_bytes);
}

TEST(RemoteReadTest, LocalReadReportsNoNetworkBytes) {
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  StorageDevice local_nic(DeviceSpec::Unlimited());
  PipelineOptions opts = env.Options();
  opts.nic = &local_nic;
  auto pipeline = Pipeline::Create(LocalGraph(), opts);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  (void)Drain(**pipeline);
  EXPECT_EQ(local_nic.total_bytes_read(), 0u);
  for (const auto& s : (*pipeline)->stats().Snapshot()) {
    EXPECT_EQ(s.network_bytes, 0u);
  }
}

TEST(RemoteReadTest, RemoteBandwidthThrottlesWithoutChangingElements) {
  // A tiny remote NIC budget slows the read but must not change what
  // arrives: identity holds under throttling too.
  PipelineTestEnv env(kNumFiles, kRecordsPerFile, kRecordBytes);
  auto fast = Pipeline::Create(RemoteGraph(), env.Options());
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto slow = Pipeline::Create(RemoteGraph(/*remote_bandwidth=*/256e3),
                               env.Options());
  ASSERT_TRUE(slow.ok()) << slow.status();
  ExpectIdenticalOutput(Drain(**fast), Drain(**slow));
}

TEST(RemoteReadTest, SessionAttachNicMetersAcrossRuns) {
  Session session;
  ASSERT_TRUE(session
                  .CreateRecordFiles("data/f", kNumFiles, kRecordsPerFile,
                                     kRecordBytes)
                  .ok());
  session.AttachNic(DeviceSpec::Unlimited());
  ASSERT_NE(session.nic(), nullptr);
  EXPECT_DOUBLE_EQ(session.machine().nic.max_bandwidth, 0);

  Flow flow = session.FromGraph(RemoteGraph());
  RunOptions run;
  auto report = flow.Run(run);
  ASSERT_TRUE(report.ok()) << report.status();
  const uint64_t per_run = static_cast<uint64_t>(kNumFiles) *
                           kRecordsPerFile *
                           (kRecordBytes + kRecordFramingBytes);
  EXPECT_EQ(session.nic()->total_bytes_read(), per_run);
  // A second run accumulates on the same session device, the way a
  // host NIC counter would.
  ASSERT_TRUE(flow.Run(run).ok());
  EXPECT_EQ(session.nic()->total_bytes_read(), 2 * per_run);
}

TEST(RemoteReadTest, OptimizeTracesThroughTheSessionNic) {
  // Optimize traces with the Session's pipeline options, NIC included:
  // a remote_read program is planned from a trace the session NIC
  // paces, at the rate Flow::Trace observes, not an unmetered one.
  Session session;
  ASSERT_TRUE(session.CreateRecordFiles("data/f", 4, 400, 8192).ok());
  session.AttachNic(DeviceSpec::TokenBucketLimit(2e6));
  GraphBuilder b;
  auto graph = b.Build(
      b.Batch("batch", b.RemoteRead("rec", b.FileList("files", "data/")), 8));
  ASSERT_TRUE(graph.ok()) << graph.status();
  const Flow flow = session.FromGraph(std::move(graph).value());
  auto trace = flow.Trace(0.3);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ASSERT_GT(trace->observed_rate, 0);

  const uint64_t before = session.nic()->total_bytes_read();
  auto optimized = flow.OptimizeWith("parallelism");
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_GT(session.nic()->total_bytes_read(), before);
  EXPECT_LT(optimized->traced_rate, 2 * trace->observed_rate);
  EXPECT_GT(optimized->traced_rate, trace->observed_rate / 2);
}

}  // namespace
}  // namespace plumber
