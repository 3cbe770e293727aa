#include "src/io/sim_filesystem.h"

#include <gtest/gtest.h>

#include "src/io/storage_device.h"

namespace plumber {
namespace {

TEST(SimFilesystemTest, CreateAndList) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRecordFile("data/a-0", 1, {100, 200}).ok());
  ASSERT_TRUE(fs.CreateRecordFile("data/a-1", 2, {50}).ok());
  ASSERT_TRUE(fs.CreateRawFile("other/b", 3, 1000).ok());
  EXPECT_EQ(fs.List("data/").size(), 2u);
  EXPECT_EQ(fs.List("other/").size(), 1u);
  EXPECT_EQ(fs.List("nope/").size(), 0u);
  EXPECT_NE(fs.FindMeta("data/a-0"), nullptr);
  EXPECT_EQ(fs.FindMeta("data/a-2"), nullptr);
  EXPECT_EQ(fs.List("").size(), 3u);
}

TEST(SimFilesystemTest, DuplicateCreateFails) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRecordFile("x", 1, {10}).ok());
  EXPECT_EQ(fs.CreateRecordFile("x", 1, {10}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.CreateRawFile("x", 1, 10).code(),
            StatusCode::kAlreadyExists);
}

TEST(SimFilesystemTest, FileSizeIncludesFraming) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRecordFile("x", 1, {100, 200}).ok());
  const SimFileMeta* meta = fs.FindMeta("x");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->TotalBytes(), 300 + 2 * kRecordFramingBytes);
  EXPECT_EQ(fs.FindMeta("missing"), nullptr);
}

TEST(RecordReaderTest, ReadsAllRecordsWithCorrectSizes) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRecordFile("x", 7, {10, 20, 30}).ok());
  auto reader = std::move(fs.OpenRecord("x")).value();
  std::vector<uint8_t> payload;
  bool end = false;
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  EXPECT_FALSE(end);
  EXPECT_EQ(payload.size(), 10u);
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  EXPECT_EQ(payload.size(), 20u);
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  EXPECT_EQ(payload.size(), 30u);
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  EXPECT_TRUE(end);
}

TEST(RecordReaderTest, ContentDeterministicPerRecord) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRecordFile("x", 7, {64, 64}).ok());
  auto r1 = std::move(fs.OpenRecord("x")).value();
  auto r2 = std::move(fs.OpenRecord("x")).value();
  std::vector<uint8_t> a, b;
  bool end;
  ASSERT_TRUE(r1->ReadRecord(&a, &end).ok());
  ASSERT_TRUE(r2->ReadRecord(&b, &end).ok());
  EXPECT_EQ(a, b);
  // Second record differs from the first.
  ASSERT_TRUE(r1->ReadRecord(&b, &end).ok());
  EXPECT_NE(a, b);
}

TEST(SimFilesystemTest, ReadLogTracksBytesAndCompletion) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRecordFile("x", 7, {100, 100}).ok());
  auto reader = std::move(fs.OpenRecord("x")).value();
  std::vector<uint8_t> payload;
  bool end;
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  auto log = fs.SnapshotReadLog();
  ASSERT_EQ(log.count("x"), 1u);
  EXPECT_EQ(log["x"].bytes_read, 100 + kRecordFramingBytes);
  EXPECT_FALSE(log["x"].fully_read);
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  log = fs.SnapshotReadLog();
  EXPECT_TRUE(log["x"].fully_read);
  EXPECT_EQ(log["x"].file_size, 200 + 2 * kRecordFramingBytes);
  EXPECT_EQ(fs.total_bytes_read(), 200 + 2 * kRecordFramingBytes);
  fs.ClearReadLog();
  EXPECT_EQ(fs.total_bytes_read(), 0u);
}

TEST(RawReaderTest, ReadsAndLoops) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRawFile("x", 7, 100).ok());
  auto reader = std::move(fs.OpenRaw("x")).value();
  EXPECT_EQ(reader->Read(60), 60u);
  EXPECT_EQ(reader->Read(60), 40u);  // truncated at EOF
  EXPECT_EQ(reader->Read(60), 0u);   // EOF, no loop
  EXPECT_EQ(reader->Read(60, /*loop=*/true), 60u);
}

TEST(SimFilesystemTest, DeviceChargedForReads) {
  StorageDevice device(DeviceSpec::Unlimited());
  SimFilesystem fs(&device);
  ASSERT_TRUE(fs.CreateRecordFile("x", 7, {100}).ok());
  auto reader = std::move(fs.OpenRecord("x")).value();
  std::vector<uint8_t> payload;
  bool end;
  ASSERT_TRUE(reader->ReadRecord(&payload, &end).ok());
  EXPECT_EQ(device.total_bytes_read(), 100 + kRecordFramingBytes);
  EXPECT_EQ(device.total_reads(), 1u);
}

}  // namespace
}  // namespace plumber
