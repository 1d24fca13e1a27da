#include <memory>

#include "common/config.h"
#include "gtest/gtest.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/extent_file.h"
#include "storage/memory_manager.h"
#include "storage/page.h"
#include "storage/record_file.h"
#include "storage/virtual_device.h"
#include "tests/test_util.h"

namespace reldiv {
namespace {

TEST(SimDiskTest, ReadBackWhatWasWritten) {
  SimDisk disk;
  const uint64_t first = disk.AllocateSectors(4);
  std::vector<char> out(4 * kSectorSize, 'x');
  ASSERT_OK(disk.Write(first, 4, out.data()));
  std::vector<char> in(4 * kSectorSize, 0);
  ASSERT_OK(disk.Read(first, 4, in.data()));
  EXPECT_EQ(in, out);
}

TEST(SimDiskTest, SeekAccountingSequentialVsRandom) {
  SimDisk disk;
  disk.AllocateSectors(100);
  std::vector<char> buf(kSectorSize, 0);
  ASSERT_OK(disk.Write(0, 1, buf.data()));   // seek (first access)
  ASSERT_OK(disk.Write(1, 1, buf.data()));   // sequential
  ASSERT_OK(disk.Write(2, 1, buf.data()));   // sequential
  ASSERT_OK(disk.Write(50, 1, buf.data()));  // seek
  ASSERT_OK(disk.Read(51, 1, buf.data()));   // sequential after the write
  EXPECT_EQ(disk.stats().transfers, 5u);
  EXPECT_EQ(disk.stats().seeks, 2u);
  EXPECT_EQ(disk.stats().sectors_transferred, 5u);
  EXPECT_EQ(disk.stats().read_transfers, 1u);
  EXPECT_EQ(disk.stats().write_transfers, 4u);
}

TEST(SimDiskTest, MultiSectorTransferCountsOnce) {
  SimDisk disk;
  disk.AllocateSectors(16);
  std::vector<char> buf(8 * kSectorSize, 1);
  ASSERT_OK(disk.Write(0, 8, buf.data()));
  EXPECT_EQ(disk.stats().transfers, 1u);
  EXPECT_EQ(disk.stats().sectors_transferred, 8u);
}

TEST(SimDiskTest, RejectsOutOfRangeTransfer) {
  SimDisk disk;
  disk.AllocateSectors(2);
  std::vector<char> buf(kSectorSize, 0);
  EXPECT_TRUE(disk.Read(1, 2, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(disk.Write(0, 0, buf.data()).IsInvalidArgument());
}

TEST(SimDiskTest, FileBackedRoundTrip) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SimDisk> disk,
                       SimDisk::OpenFileBacked("/tmp/reldiv-test-disk.bin"));
  const uint64_t first = disk->AllocateSectors(2);
  std::vector<char> out(2 * kSectorSize);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<char>(i & 0x7f);
  ASSERT_OK(disk->Write(first, 2, out.data()));
  std::vector<char> in(2 * kSectorSize, 0);
  ASSERT_OK(disk->Read(first, 2, in.data()));
  EXPECT_EQ(in, out);
}

TEST(SlottedPageTest, AddAndGetRecords) {
  std::vector<char> frame(kPageSize);
  SlottedPage page(frame.data());
  page.Init();
  EXPECT_EQ(page.num_slots(), 0u);
  ASSERT_OK_AND_ASSIGN(uint16_t s0, page.AddRecord(Slice("hello")));
  ASSERT_OK_AND_ASSIGN(uint16_t s1, page.AddRecord(Slice("world!")));
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
  Slice r0, r1;
  ASSERT_TRUE(page.GetIfLive(0, &r0));
  ASSERT_TRUE(page.GetIfLive(1, &r1));
  EXPECT_EQ(r0.ToString(), "hello");
  EXPECT_EQ(r1.ToString(), "world!");
}

TEST(SlottedPageTest, FillsUntilResourceExhausted) {
  std::vector<char> frame(kPageSize);
  SlottedPage page(frame.data());
  page.Init();
  std::string record(100, 'r');
  size_t added = 0;
  while (true) {
    auto result = page.AddRecord(Slice(record));
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsResourceExhausted());
      break;
    }
    added++;
  }
  // 100-byte payload + 4-byte slot entry each, 4-byte header.
  EXPECT_EQ(added, (kPageSize - 4) / 104);
  // All records still intact.
  for (uint16_t i = 0; i < added; ++i) {
    Slice r;
    ASSERT_TRUE(page.GetIfLive(i, &r));
    EXPECT_EQ(r.size(), 100u);
  }
}

TEST(SlottedPageTest, RejectsOversizedRecord) {
  std::vector<char> frame(kPageSize);
  SlottedPage page(frame.data());
  page.Init();
  std::string huge(kPageSize, 'x');
  EXPECT_TRUE(page.AddRecord(Slice(huge)).status().IsInvalidArgument());
}

TEST(ExtentFileTest, AllocatesContiguousExtents) {
  SimDisk disk;
  ExtentFile file(&disk, /*extent_pages=*/4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(file.AllocatePage(), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(file.num_pages(), 10u);
  EXPECT_EQ(file.num_extents(), 3u);  // 4 + 4 + 2
  // Pages within one extent are physically consecutive.
  ASSERT_OK_AND_ASSIGN(uint64_t g0, file.GlobalPage(0));
  ASSERT_OK_AND_ASSIGN(uint64_t g3, file.GlobalPage(3));
  EXPECT_EQ(g3, g0 + 3);
  EXPECT_TRUE(file.GlobalPage(10).status().IsInvalidArgument());
}

TEST(MemoryPoolTest, ReserveAndRelease) {
  MemoryPool pool(1000);
  EXPECT_TRUE(pool.Reserve(600));
  EXPECT_FALSE(pool.Reserve(500));
  EXPECT_TRUE(pool.Reserve(400));
  pool.Release(600);
  EXPECT_EQ(pool.used(), 400u);
  EXPECT_TRUE(pool.Reserve(600));
}

TEST(ArenaTest, AllocatesAlignedAndTracksBytes) {
  Arena arena(nullptr, /*chunk_bytes=*/256);
  void* p1 = arena.Allocate(10);
  void* p2 = arena.Allocate(10);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 8, 0u);
  EXPECT_EQ(arena.bytes_allocated(), 32u);  // two 16-byte aligned blocks
}

TEST(ArenaTest, ReturnsNullWhenPoolExhausted) {
  MemoryPool pool(100);
  Arena arena(&pool, /*chunk_bytes=*/64);
  EXPECT_NE(arena.Allocate(40), nullptr);
  EXPECT_EQ(arena.Allocate(4096), nullptr);  // needs a 4 KB chunk, pool has 36
  arena.Reset();
  EXPECT_EQ(pool.used(), 0u);
}

TEST(BufferManagerTest, HitAndMissAccounting) {
  SimDisk disk;
  ExtentFile file(&disk);
  const uint64_t page = file.AllocatePage();
  ASSERT_OK_AND_ASSIGN(uint64_t global, file.GlobalPage(page));
  BufferManager bm(&disk, nullptr);
  ASSERT_OK_AND_ASSIGN(char* f1, bm.Fix(global, /*create=*/true));
  f1[0] = 'a';
  ASSERT_OK(bm.Unfix(global, /*dirty=*/true));
  ASSERT_OK_AND_ASSIGN(char* f2, bm.Fix(global, /*create=*/false));
  EXPECT_EQ(f2[0], 'a');
  ASSERT_OK(bm.Unfix(global, /*dirty=*/false));
  EXPECT_EQ(bm.stats().fixes, 2u);
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 1u);
}

TEST(BufferManagerTest, EvictsLruAndWritesBack) {
  SimDisk disk;
  ExtentFile file(&disk);
  std::vector<uint64_t> globals;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t g, file.GlobalPage(file.AllocatePage()));
    globals.push_back(g);
  }
  MemoryPool pool(2 * kPageSize);  // room for exactly two frames
  BufferManager bm(&disk, &pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(char* frame, bm.Fix(globals[i], /*create=*/true));
    frame[0] = static_cast<char>('a' + i);
    ASSERT_OK(bm.Unfix(globals[i], /*dirty=*/true));
  }
  EXPECT_EQ(bm.num_frames(), 2u);
  EXPECT_EQ(bm.stats().evictions, 2u);
  EXPECT_EQ(bm.stats().writebacks, 2u);
  // Evicted page 0 must read back its written content.
  ASSERT_OK_AND_ASSIGN(char* frame, bm.Fix(globals[0], /*create=*/false));
  EXPECT_EQ(frame[0], 'a');
  ASSERT_OK(bm.Unfix(globals[0], /*dirty=*/false));
}

TEST(BufferManagerTest, AllFramesFixedExhaustsPool) {
  SimDisk disk;
  ExtentFile file(&disk);
  std::vector<uint64_t> globals;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t g, file.GlobalPage(file.AllocatePage()));
    globals.push_back(g);
  }
  MemoryPool pool(2 * kPageSize);
  BufferManager bm(&disk, &pool);
  ASSERT_OK_AND_ASSIGN(char* f0, bm.Fix(globals[0], true));
  ASSERT_OK_AND_ASSIGN(char* f1, bm.Fix(globals[1], true));
  (void)f0;
  (void)f1;
  auto result = bm.Fix(globals[2], true);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  ASSERT_OK(bm.Unfix(globals[0], false));
  ASSERT_OK(bm.Unfix(globals[1], false));
}

TEST(BufferManagerTest, ReplaceImmediatelyShrinksPool) {
  SimDisk disk;
  ExtentFile file(&disk);
  ASSERT_OK_AND_ASSIGN(uint64_t g, file.GlobalPage(file.AllocatePage()));
  MemoryPool pool(8 * kPageSize);
  BufferManager bm(&disk, &pool);
  ASSERT_OK_AND_ASSIGN(char* frame, bm.Fix(g, true));
  (void)frame;
  EXPECT_EQ(pool.used(), kPageSize);
  ASSERT_OK(bm.Unfix(g, /*dirty=*/true, /*replace_immediately=*/true));
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(bm.num_frames(), 0u);
  EXPECT_EQ(bm.stats().writebacks, 1u);
}

TEST(BufferManagerTest, PinCountNesting) {
  SimDisk disk;
  ExtentFile file(&disk);
  ASSERT_OK_AND_ASSIGN(uint64_t g, file.GlobalPage(file.AllocatePage()));
  BufferManager bm(&disk, nullptr);
  ASSERT_OK_AND_ASSIGN(char* f1, bm.Fix(g, true));
  ASSERT_OK_AND_ASSIGN(char* f2, bm.Fix(g, false));
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(bm.PinCount(g), 2);
  ASSERT_OK(bm.Unfix(g, false));
  EXPECT_EQ(bm.PinCount(g), 1);
  ASSERT_OK(bm.Unfix(g, false));
  EXPECT_EQ(bm.PinCount(g), 0);
  EXPECT_TRUE(bm.Unfix(g, false).IsInternal());
}

TEST(BufferManagerTest, UnfixOfUnknownPageFails) {
  SimDisk disk;
  BufferManager bm(&disk, nullptr);
  EXPECT_TRUE(bm.Unfix(123, false).IsInvalidArgument());
}

TEST(RecordFileTest, AppendAndScan) {
  SimDisk disk;
  BufferManager bm(&disk, nullptr);
  RecordFile file(&disk, &bm, "t");
  std::vector<Rid> rids;
  for (int i = 0; i < 1000; ++i) {
    std::string record = "record-" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(Rid rid, file.Append(Slice(record)));
    rids.push_back(rid);
  }
  EXPECT_EQ(file.num_records(), 1000u);
  EXPECT_GT(file.num_pages(), 1u);

  // Sequential scan sees everything in order.
  const std::vector<ScannedRecord> records = ScanRecords(&file);
  ASSERT_EQ(records.size(), 1000u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].payload, "record-" + std::to_string(i));
    EXPECT_EQ(records[i].rid, rids[i]);
  }
}

TEST(RecordFileTest, ScanOfEmptyFile) {
  SimDisk disk;
  BufferManager bm(&disk, nullptr);
  RecordFile file(&disk, &bm, "empty");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<RecordScan> scan, file.OpenScan());
  RecordRef ref;
  size_t count = 1;
  bool has_more = true;
  ASSERT_OK(scan->NextBatch(&ref, 1, &count, &has_more));
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(has_more);
}

TEST(RecordFileTest, SequentialScanIsMostlySeekFree) {
  SimDisk disk;
  BufferManager bm(&disk, nullptr);
  RecordFile file(&disk, &bm, "seq");
  std::string record(1000, 'r');
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid, file.Append(Slice(record)));
    (void)rid;
  }
  ASSERT_OK(bm.FlushAll());
  ASSERT_OK(bm.DropAll());
  disk.ResetStats();

  EXPECT_EQ(ScanRecords(&file).size(), 200u);
  // Extent-based placement: one transfer per page, seeks far rarer than
  // transfers (one per extent boundary at worst).
  const DiskStats& stats = disk.stats();
  EXPECT_EQ(stats.read_transfers, file.num_pages());
  EXPECT_LE(stats.seeks, file.num_pages() / kExtentPages + 1);
}

TEST(VirtualDeviceTest, AppendAndScanWithoutIo) {
  SimDisk disk;
  VirtualDevice device(nullptr, "tmp");
  ASSERT_OK_AND_ASSIGN(Rid r0, device.Append(Slice("alpha")));
  ASSERT_OK_AND_ASSIGN(Rid r1, device.Append(Slice("beta")));
  (void)r0;
  (void)r1;
  EXPECT_EQ(device.num_records(), 2u);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<RecordScan> scan, device.OpenScan());
  RecordRef refs[2];
  size_t count = 0;
  bool has_more = false;
  // A call that fills its capacity reports more, even at the end.
  ASSERT_OK(scan->NextBatch(refs, 2, &count, &has_more));
  ASSERT_EQ(count, 2u);
  EXPECT_TRUE(has_more);
  EXPECT_EQ(refs[0].payload.ToString(), "alpha");
  EXPECT_EQ(refs[1].payload.ToString(), "beta");
  ASSERT_OK(scan->NextBatch(refs, 2, &count, &has_more));
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(has_more);
  EXPECT_EQ(disk.stats().transfers, 0u);
}

TEST(VirtualDeviceTest, ChargesMemoryPool) {
  MemoryPool pool(2 * kPageSize);
  VirtualDevice device(&pool, "tmp");
  std::string record(1024, 'v');
  Status last;
  size_t appended = 0;
  while (true) {
    auto result = device.Append(Slice(record));
    if (!result.ok()) {
      last = result.status();
      break;
    }
    appended++;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  EXPECT_GT(appended, 0u);
  EXPECT_LE(device.bytes_used(), 2 * kPageSize);
}

}  // namespace
}  // namespace reldiv
