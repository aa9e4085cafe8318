// Storage VFS layer: POSIX passthrough basics and the MemVfs durability
// model + deterministic fault schedule that the crash-point harness and
// the storage-fault soak campaign stand on.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/io/mem_vfs.hpp"
#include "util/io/vfs.hpp"

namespace evc {
namespace {

using io::MemVfs;
using io::OpenMode;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "vfs_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Write `bytes` through plain open/write/close (no atomicity, no syncs).
void put(io::Vfs& vfs, const std::string& path, const std::string& bytes) {
  auto file = vfs.open(path, OpenMode::kWrite);
  file->write(bytes.data(), bytes.size());
  file->close();
}

// --- POSIX passthrough ---

TEST(PosixVfs, RoundTripScanRenameRemove) {
  io::Vfs& vfs = io::posix_vfs();
  EXPECT_STREQ(vfs.name(), "posix");
  const std::string dir = fresh_dir("posix");
  vfs.make_dirs(dir + "/nested");
  EXPECT_TRUE(vfs.exists(dir + "/nested"));

  io::write_file_atomic(vfs, dir + "/b.bin", "beta", /*durable=*/true);
  io::write_file_atomic(vfs, dir + "/a.bin", "alpha", /*durable=*/false);
  EXPECT_EQ(io::read_whole_file(vfs, dir + "/a.bin"), "alpha");
  EXPECT_EQ(io::read_whole_file(vfs, dir + "/b.bin"), "beta");

  // scan: regular files only (the nested dir is invisible), sorted names.
  EXPECT_EQ(vfs.scan(dir), (std::vector<std::string>{"a.bin", "b.bin"}));

  vfs.rename(dir + "/a.bin", dir + "/c.bin");
  EXPECT_FALSE(vfs.exists(dir + "/a.bin"));
  EXPECT_EQ(io::read_whole_file(vfs, dir + "/c.bin"), "alpha");

  vfs.truncate(dir + "/c.bin", 2);
  EXPECT_EQ(io::read_whole_file(vfs, dir + "/c.bin"), "al");

  vfs.remove(dir + "/c.bin");
  vfs.remove(dir + "/c.bin");  // already gone: silent success
  EXPECT_FALSE(vfs.exists(dir + "/c.bin"));

  try {
    vfs.open(dir + "/missing", OpenMode::kRead);
    FAIL() << "open of a missing file must throw";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.err(), ENOENT);
  }
  std::filesystem::remove_all(dir);
}

TEST(PosixVfs, AppendModeAppends) {
  io::Vfs& vfs = io::posix_vfs();
  const std::string dir = fresh_dir("append");
  vfs.make_dirs(dir);
  {
    auto file = vfs.open(dir + "/log", OpenMode::kAppend);
    file->write("one", 3);
  }
  {
    auto file = vfs.open(dir + "/log", OpenMode::kAppend);
    file->write("two", 3);
    file->sync();
  }
  EXPECT_EQ(io::read_whole_file(vfs, dir + "/log"), "onetwo");
  std::filesystem::remove_all(dir);
}

// --- io.* metrics ---

std::uint64_t bytes_read_counter() {
  for (const auto& metric : obs::MetricsRegistry::global().snapshot().metrics)
    if (metric.name == "io.bytes_read") return metric.counter;
  return 0;  // not registered yet: nothing was read
}

TEST(VfsMetrics, BytesReadCountsWhatEachReadReturns) {
  // read_whole_file asks for 64 KiB per read; a smaller file must book its
  // own size, not the size of the requests.
  const std::string bytes(1000, 'x');
  const std::string dir = fresh_dir("bytes_read");
  MemVfs mem;
  for (io::Vfs* vfs : {&io::posix_vfs(), static_cast<io::Vfs*>(&mem)}) {
    SCOPED_TRACE(vfs->name());
    vfs->make_dirs(dir);
    put(*vfs, dir + "/f", bytes);
    const std::uint64_t before = bytes_read_counter();
    EXPECT_EQ(io::read_whole_file(*vfs, dir + "/f"), bytes);
    EXPECT_EQ(bytes_read_counter() - before, bytes.size());
  }
  std::filesystem::remove_all(dir);
}

// --- MemVfs durability model ---

TEST(MemVfsDurability, UnsyncedDataIsLostOnCrash) {
  MemVfs vfs;
  vfs.make_dirs("d");
  put(vfs, "d/f", "hello");
  vfs.crash();
  EXPECT_FALSE(vfs.exists("d/f"));  // neither content nor name ever synced
}

TEST(MemVfsDurability, FsyncWithoutDirSyncLosesTheName) {
  MemVfs vfs;
  vfs.make_dirs("d");
  auto file = vfs.open("d/f", OpenMode::kWrite);
  file->write("hello", 5);
  file->sync();  // content on the platter…
  file.reset();
  vfs.crash();  // …but the directory entry never was
  EXPECT_FALSE(vfs.exists("d/f"));
}

TEST(MemVfsDurability, FsyncPlusDirSyncSurvives) {
  MemVfs vfs;
  vfs.make_dirs("d");
  auto file = vfs.open("d/f", OpenMode::kWrite);
  file->write("hello", 5);
  file->sync();
  file.reset();
  vfs.sync_dir("d");
  vfs.crash();
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "hello");
}

TEST(MemVfsDurability, DirSyncWithoutFsyncKeepsNameLosesContent) {
  MemVfs vfs;
  vfs.make_dirs("d");
  put(vfs, "d/f", "hello");
  vfs.sync_dir("d");  // the name is durable, the bytes are not
  vfs.crash();
  EXPECT_TRUE(vfs.exists("d/f"));
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "");
}

TEST(MemVfsDurability, OverwriteRevertsToOldContentOnCrash) {
  MemVfs vfs;
  vfs.make_dirs("d");
  io::write_file_atomic(vfs, "d/f", "old", /*durable=*/true);
  put(vfs, "d/f", "new");  // O_TRUNC + write, never fsynced
  EXPECT_EQ(vfs.peek("d/f"), "new");
  vfs.crash();
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "old");
}

TEST(MemVfsDurability, RenameDurableOnlyAfterDirSync) {
  MemVfs vfs;
  vfs.make_dirs("d");
  io::write_file_atomic(vfs, "d/a", "payload", /*durable=*/true);

  vfs.rename("d/a", "d/b");
  vfs.crash();  // rename never reached the directory
  EXPECT_TRUE(vfs.exists("d/a"));
  EXPECT_FALSE(vfs.exists("d/b"));
  EXPECT_EQ(io::read_whole_file(vfs, "d/a"), "payload");

  vfs.rename("d/a", "d/b");
  vfs.sync_dir("d");
  vfs.crash();
  EXPECT_FALSE(vfs.exists("d/a"));
  EXPECT_EQ(io::read_whole_file(vfs, "d/b"), "payload");
}

TEST(MemVfsDurability, RemoveDurableOnlyAfterDirSync) {
  MemVfs vfs;
  vfs.make_dirs("d");
  io::write_file_atomic(vfs, "d/f", "payload", /*durable=*/true);

  vfs.remove("d/f");
  vfs.crash();  // unlink never reached the directory
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "payload");

  vfs.remove("d/f");
  vfs.sync_dir("d");
  vfs.crash();
  EXPECT_FALSE(vfs.exists("d/f"));
}

TEST(MemVfs, OpenSemantics) {
  MemVfs vfs;
  vfs.make_dirs("d");
  // kRead on a missing file: ENOENT, not a crash point.
  try {
    vfs.open("d/missing", OpenMode::kRead);
    FAIL();
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.err(), ENOENT);
  }
  // kWrite without a parent directory: ENOENT.
  EXPECT_THROW(vfs.open("nodir/f", OpenMode::kWrite), io::IoError);

  // kAppend creates (one mutating op) and later reopens without one.
  const std::uint64_t before = vfs.mutating_ops();
  { auto file = vfs.open("d/log", OpenMode::kAppend); }
  EXPECT_EQ(vfs.mutating_ops(), before + 1);
  { auto file = vfs.open("d/log", OpenMode::kAppend); }
  EXPECT_EQ(vfs.mutating_ops(), before + 1);  // existing file: not gated
}

TEST(MemVfs, OpAndCrashPointAccounting) {
  MemVfs vfs;
  vfs.make_dirs("d");  //                      1 op, 1 point
  auto file = vfs.open("d/f", OpenMode::kWrite);  // 1 op, 1 point
  file->write("hello", 5);  //                 1 op, 2 points (before + mid)
  file->sync();  //                            1 op, 1 point
  file.reset();
  vfs.rename("d/f", "d/g");  //                1 op, 1 point
  vfs.sync_dir("d");  //                       1 op, 1 point
  EXPECT_EQ(vfs.mutating_ops(), 6u);
  EXPECT_EQ(vfs.crash_points(), 7u);
  vfs.reset_counters();
  EXPECT_EQ(vfs.mutating_ops(), 0u);
  EXPECT_EQ(vfs.crash_points(), 0u);
}

// --- Fault schedule ---

TEST(MemVfsFaults, FailAtThrowsTypedErrno) {
  MemVfs vfs;
  vfs.make_dirs("d");  // op 0
  MemVfs::Faults faults;
  faults.fail_at = 2;  // ops: open(1), write(2)
  faults.fail_errno = ENOSPC;
  vfs.set_faults(faults);
  auto file = vfs.open("d/f", OpenMode::kWrite);
  try {
    file->write("hello", 5);
    FAIL() << "scheduled ENOSPC did not fire";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.err(), ENOSPC);
  }
  // Without fail_short_write nothing of the write landed.
  EXPECT_EQ(vfs.peek("d/f"), "");
  // One-shot by construction: the op index has moved past fail_at.
  file->write("hello", 5);
  EXPECT_EQ(vfs.peek("d/f"), "hello");
}

TEST(MemVfsFaults, ShortWriteLeavesStrictSeededPrefix) {
  MemVfs vfs;
  vfs.make_dirs("d");
  MemVfs::Faults faults;
  faults.fail_at = 2;
  faults.fail_errno = EIO;
  faults.fail_short_write = true;
  vfs.set_faults(faults);
  auto file = vfs.open("d/f", OpenMode::kWrite);
  const std::string body = "0123456789";
  EXPECT_THROW(file->write(body.data(), body.size()), io::IoError);
  const std::string landed = vfs.peek("d/f");
  EXPECT_LT(landed.size(), body.size());  // strict prefix
  EXPECT_EQ(landed, body.substr(0, landed.size()));

  // Deterministic: the same seed produces the same torn prefix.
  MemVfs again(faults);
  again.make_dirs("d");
  auto file2 = again.open("d/f", OpenMode::kWrite);
  EXPECT_THROW(file2->write(body.data(), body.size()), io::IoError);
  EXPECT_EQ(again.peek("d/f"), landed);
}

TEST(MemVfsFaults, CrashBeforeOpLeavesNoEffect) {
  MemVfs vfs;
  vfs.make_dirs("d");
  MemVfs::Faults faults;
  faults.crash_at = 2;  // points: mkdir(0), open(1), write-before(2)
  vfs.set_faults(faults);
  auto file = vfs.open("d/f", OpenMode::kWrite);
  try {
    file->write("hello", 5);
    FAIL() << "scheduled crash point did not fire";
  } catch (const io::CrashPoint& cp) {
    EXPECT_EQ(cp.point, 2u);
  }
  EXPECT_EQ(vfs.peek("d/f"), "");
  EXPECT_EQ(vfs.faults().crash_at, -1);  // one-shot
  // The process is dead: further I/O fails until crash() reboots.
  EXPECT_THROW(file->sync(), io::IoError);
  vfs.crash();
  EXPECT_FALSE(vfs.exists("d/f"));  // nothing was ever durable
}

TEST(MemVfsFaults, MidWriteCrashLeavesStrictPrefix) {
  MemVfs vfs;
  vfs.make_dirs("d");
  MemVfs::Faults faults;
  faults.crash_at = 3;  // the write's mid-point (torn write)
  vfs.set_faults(faults);
  auto file = vfs.open("d/f", OpenMode::kWrite);
  const std::string body = "0123456789";
  try {
    file->write(body.data(), body.size());
    FAIL() << "scheduled crash point did not fire";
  } catch (const io::CrashPoint& cp) {
    EXPECT_EQ(cp.point, 3u);
  }
  const std::string landed = vfs.peek("d/f");
  EXPECT_LT(landed.size(), body.size());
  EXPECT_EQ(landed, body.substr(0, landed.size()));
  EXPECT_EQ(vfs.crash_points(), 4u);
}

TEST(MemVfsFaults, FaultRateHitsOnlyTheDataPath) {
  MemVfs::Faults faults;
  faults.fault_rate = 1.0;  // every write/sync fails…
  MemVfs vfs(faults);
  vfs.make_dirs("d");                              // …but meta ops succeed
  auto file = vfs.open("d/f", OpenMode::kWrite);   // and opens succeed
  try {
    file->write("hello", 5);
    FAIL();
  } catch (const io::IoError& e) {
    EXPECT_TRUE(e.err() == EIO || e.err() == ENOSPC);
  }
  EXPECT_THROW(file->sync(), io::IoError);
  EXPECT_NO_THROW(vfs.scan("d"));  // reads stay reliable
}

TEST(MemVfsFaults, BitflipRotIsPersistent) {
  MemVfs vfs;
  vfs.make_dirs("d");
  const std::string body(256, 'x');
  io::write_file_atomic(vfs, "d/f", body, /*durable=*/true);

  MemVfs::Faults faults;
  faults.bitflip_rate = 1.0;
  vfs.set_faults(faults);
  const std::string rotted = io::read_whole_file(vfs, "d/f");
  ASSERT_EQ(rotted.size(), body.size());
  EXPECT_NE(rotted, body);

  // The platter rotted, not the copy: with injection off the damage (one
  // flip per read() call made above) is still there, and it survives a
  // power cycle.
  vfs.set_faults(MemVfs::Faults{});
  const std::string settled = io::read_whole_file(vfs, "d/f");
  EXPECT_NE(settled, body);
  vfs.crash();
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), settled);
}

TEST(MemVfs, CorruptByteTargetsBothImages) {
  MemVfs vfs;
  vfs.make_dirs("d");
  io::write_file_atomic(vfs, "d/f", "hello", /*durable=*/true);
  vfs.corrupt_byte("d/f", 1, 0x20);
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "hEllo");
  vfs.crash();  // durable image carries the same damage
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "hEllo");
  vfs.corrupt_byte("d/f", 1, 0x20);  // XOR twice restores
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "hello");

  EXPECT_THROW(vfs.corrupt_byte("d/f", 999, 1), std::invalid_argument);
  EXPECT_THROW(vfs.corrupt_byte("d/missing", 0, 1), io::IoError);
}

// --- write_file_atomic: the no-torn-file contract, at every crash point ---

TEST(MemVfsAtomicWrite, EveryCrashPointLeavesOldOrNewNeverTorn) {
  // Reference run pins the enumerable crash-point count of one durable
  // atomic overwrite: open tmp, write, fsync, rename, dir fsync.
  const std::string kOld = "previous generation";
  const std::string kNew = "next generation, rather longer than the old one";
  std::uint64_t points = 0;
  {
    MemVfs vfs;
    vfs.make_dirs("d");
    io::write_file_atomic(vfs, "d/f", kOld, /*durable=*/true);
    vfs.reset_counters();
    io::write_file_atomic(vfs, "d/f", kNew, /*durable=*/true);
    points = vfs.crash_points();
    EXPECT_EQ(points, 6u) << "atomic-write I/O sequence changed; re-audit";
  }

  for (std::uint64_t k = 0; k < points; ++k) {
    SCOPED_TRACE("crash point " + std::to_string(k));
    MemVfs vfs;
    vfs.make_dirs("d");
    io::write_file_atomic(vfs, "d/f", kOld, /*durable=*/true);
    vfs.reset_counters();
    MemVfs::Faults faults;
    faults.crash_at = static_cast<long long>(k);
    vfs.set_faults(faults);
    bool crashed = false;
    try {
      io::write_file_atomic(vfs, "d/f", kNew, /*durable=*/true);
    } catch (const io::CrashPoint&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    vfs.crash();
    // Old or new under the real name — never torn, never missing.
    const std::string content = io::read_whole_file(vfs, "d/f");
    EXPECT_TRUE(content == kOld || content == kNew) << content;
  }
}

TEST(MemVfsAtomicWrite, IoErrorCleansUpTheTemp) {
  MemVfs vfs;
  vfs.make_dirs("d");
  io::write_file_atomic(vfs, "d/f", "old", /*durable=*/true);
  MemVfs::Faults faults;
  faults.fail_at = static_cast<long long>(vfs.mutating_ops()) + 1;  // write
  faults.fail_errno = ENOSPC;
  faults.fail_short_write = true;
  vfs.set_faults(faults);
  try {
    io::write_file_atomic(vfs, "d/f", "new", /*durable=*/true);
    FAIL();
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.err(), ENOSPC);
  }
  EXPECT_EQ(io::read_whole_file(vfs, "d/f"), "old");
  EXPECT_FALSE(vfs.exists("d/f.tmp"));  // best-effort cleanup ran
}

// --- default backend selection ---

TEST(DefaultVfs, OverrideAndRestore) {
  MemVfs mem;
  io::set_default_vfs(&mem);
  EXPECT_EQ(&io::default_vfs(), static_cast<io::Vfs*>(&mem));
  io::set_default_vfs(nullptr);
  // Clearing the override falls back to the EVC_VFS selection: posix
  // passthrough normally, the seeded faulty MemVfs on the storage-fault
  // CI leg.
  const char* kind = std::getenv("EVC_VFS");
  EXPECT_STREQ(io::default_vfs().name(),
               kind != nullptr && std::string(kind) == "faulty" ? "faulty"
                                                                : "posix");
}

}  // namespace
}  // namespace evc
