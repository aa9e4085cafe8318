#include "util/io/vfs.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "util/io/mem_vfs.hpp"
#include "util/io/vfs_metrics.hpp"

namespace evc::io {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  const int err = errno;
  throw IoError(what + ": " + std::strerror(err), err);
}

class PosixFile final : public File {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);  // destructor must not throw; close() does
  }

  std::size_t read(void* buf, std::size_t n) override {
    for (;;) {
      const ssize_t r = ::read(fd_, buf, n);
      if (r >= 0) {
        vfs_metrics().read(static_cast<std::size_t>(r));
        return static_cast<std::size_t>(r);
      }
      if (errno == EINTR) continue;
      throw_errno("read " + path_);
    }
  }

  void write(const void* buf, std::size_t n) override {
    vfs_metrics().write(n);
    const char* data = static_cast<const char*>(buf);
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd_, data + off, n - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw_errno("write " + path_);
      }
      off += static_cast<std::size_t>(w);
    }
  }

  void sync() override {
    EVC_TRACE_SPAN("io.fsync");
    vfs_metrics().sync();
    if (::fsync(fd_) != 0) throw_errno("fsync " + path_);
  }

  void close() override {
    if (fd_ < 0) return;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throw_errno("close " + path_);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixVfs final : public Vfs {
 public:
  const char* name() const override { return "posix"; }

  std::unique_ptr<File> open(const std::string& path,
                             OpenMode mode) override {
    int flags = O_CLOEXEC;
    switch (mode) {
      case OpenMode::kRead: flags |= O_RDONLY; break;
      case OpenMode::kWrite: flags |= O_WRONLY | O_CREAT | O_TRUNC; break;
      case OpenMode::kAppend: flags |= O_WRONLY | O_CREAT | O_APPEND; break;
    }
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) throw_errno("cannot open " + path);
    return std::make_unique<PosixFile>(fd, path);
  }

  bool exists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  void rename(const std::string& from, const std::string& to) override {
    vfs_metrics().rename();
    if (std::rename(from.c_str(), to.c_str()) != 0)
      throw_errno("cannot rename " + from + " to " + to);
  }

  void remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT)
      throw_errno("cannot remove " + path);
  }

  void truncate(const std::string& path, std::uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
      throw_errno("cannot truncate " + path);
  }

  void make_dirs(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec)
      throw IoError("cannot create directory " + path + ": " + ec.message(),
                    ec.value());
  }

  void sync_dir(const std::string& path) override {
    EVC_TRACE_SPAN("io.fsync");
    vfs_metrics().sync();
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) throw_errno("cannot open " + path + " for fsync");
    const int rc = ::fsync(fd);
    const int saved_errno = errno;
    ::close(fd);
    if (rc != 0) {
      errno = saved_errno;
      throw_errno("fsync " + path);
    }
  }

  std::vector<std::string> scan(const std::string& dir) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec))
        names.push_back(it->path().filename().string());
    }
    if (ec)
      throw IoError("cannot scan " + dir + ": " + ec.message(), ec.value());
    std::sort(names.begin(), names.end());
    return names;
  }
};

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

/// Resolve the EVC_VFS environment selection once.
Vfs* resolve_env_vfs() {
  const char* kind = std::getenv("EVC_VFS");
  if (kind == nullptr || std::strcmp(kind, "posix") == 0 || *kind == '\0')
    return &posix_vfs();
  if (std::strcmp(kind, "faulty") == 0) {
    MemVfs::Faults faults;
    faults.seed =
        static_cast<std::uint64_t>(env_double("EVC_VFS_SEED", 1.0));
    // Random faults hit only the data path (writes/syncs) so directory
    // creation and manifest opens still succeed — the point is exercising
    // retry policies, not making construction flaky.
    faults.fault_rate = env_double("EVC_VFS_FAULT_RATE", 0.01);
    faults.bitflip_rate = env_double("EVC_VFS_BITFLIP_RATE", 0.0);
    static MemVfs faulty(faults);
    return &faulty;
  }
  throw std::invalid_argument(std::string("EVC_VFS='") + kind +
                              "' (expected posix or faulty)");
}

std::atomic<Vfs*>& default_slot() {
  static std::atomic<Vfs*> slot{nullptr};
  return slot;
}

}  // namespace

VfsMetrics& vfs_metrics() {
  static VfsMetrics metrics;
  return metrics;
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string base_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string read_whole_file(Vfs& vfs, const std::string& path) {
  auto file = vfs.open(path, OpenMode::kRead);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = file->read(buf, sizeof(buf));
    if (n == 0) break;
    bytes.append(buf, n);
  }
  file->close();
  return bytes;
}

void write_file_atomic(Vfs& vfs, const std::string& path,
                       std::string_view bytes, bool durable) {
  const std::string tmp = path + ".tmp";
  try {
    auto file = vfs.open(tmp, OpenMode::kWrite);
    file->write(bytes.data(), bytes.size());
    if (durable) file->sync();
    file->close();
    vfs.rename(tmp, path);
    // The rename is atomic but not durable: until the directory entry
    // itself reaches disk, a power loss can resurrect the old name.
    if (durable) vfs.sync_dir(dir_of(path));
  } catch (const IoError&) {
    // Best-effort temp cleanup; the original failure is what matters.
    try {
      vfs.remove(tmp);
    } catch (const IoError&) {
    }
    throw;
  }
  // CrashPoint deliberately unwinds without cleanup: a dead process leaves
  // its temp file behind, and recovery must cope with exactly that.
}

Vfs& posix_vfs() {
  static PosixVfs vfs;
  return vfs;
}

Vfs& default_vfs() {
  Vfs* vfs = default_slot().load(std::memory_order_acquire);
  if (vfs != nullptr) return *vfs;
  static std::once_flag once;
  std::call_once(once, [] {
    Vfs* expected = nullptr;
    default_slot().compare_exchange_strong(expected, resolve_env_vfs(),
                                           std::memory_order_acq_rel);
  });
  return *default_slot().load(std::memory_order_acquire);
}

void set_default_vfs(Vfs* vfs) {
  if (vfs == nullptr) vfs = resolve_env_vfs();
  default_slot().store(vfs, std::memory_order_release);
}

}  // namespace evc::io
