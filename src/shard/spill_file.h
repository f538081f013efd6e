// spill_file — an mmap-backed anonymous temp-file run for out-of-core
// execution (shard/shard_driver.h).
//
// The file is created with mkstemp under PARSEMI_SPILL_DIR (else TMPDIR,
// else /tmp) and unlinked *immediately*: the mapping is the only handle, so
// the kernel reclaims the disk space the moment the spill_file is destroyed
// — or the process dies, however abruptly. RAII therefore guarantees
// hygiene even on exception paths; there is nothing to clean up by name
// (tests/spill_file_test.cpp proves both properties).
//
// The file's blocks are reserved with fallocate at creation, so a full disk
// surfaces as the constructor's std::runtime_error rather than as SIGBUS
// when a write through the mapping finds no block to land on.
//
// The mapping is MAP_SHARED over the file, so dirty pages are file-backed:
// under memory pressure the kernel writes them to disk and drops them
// instead of swapping, which is exactly what lets a memory-budgeted shard
// run hold its working set while the spilled runs wait on disk. The madvise
// helpers let the shard driver start readahead of the next shard's run
// while the pool semisorts the current one, and drop runs it has finished
// with.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/env.h"

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux 5.14; headers older than glibc 2.35
#endif

namespace parsemi {
namespace internal {

// Room left under one cgroup's memory limit, read from its directory:
// `limit` minus `usage` (memory.max and memory.current on cgroup v2,
// memory.limit_in_bytes and memory.usage_in_bytes on v1). SIZE_MAX when
// the group sets no limit ("max") or the files cannot be read.
inline size_t cgroup_level_room(const std::string& dir, const char* limit,
                                const char* usage) {
  std::ifstream limit_in(dir + "/" + limit), usage_in(dir + "/" + usage);
  size_t max = 0, current = 0;
  if (!(limit_in >> max) || !(usage_in >> current)) return SIZE_MAX;
  return max > current ? max - current : 0;
}

// Room left under the memory limits of this process's cgroups: the least
// over every level from the process's own group up to its hierarchy's
// root, on the v2 hierarchy and on a v1 memory hierarchy alike. A level
// whose directory the mount does not show (a container that sees only its
// own subtree) counts as unlimited. The arguments name /proc/self/cgroup
// and the cgroup mount, so a test can point them at a fake tree. SIZE_MAX
// when no limit can be read.
inline size_t cgroup_memory_room(const char* self = "/proc/self/cgroup",
                                 const std::string& mount = "/sys/fs/cgroup") {
  size_t room = SIZE_MAX;
  std::ifstream in(self);
  for (std::string line; std::getline(in, line);) {
    // hierarchy-id:controllers:path, with no controllers on v2.
    size_t c1 = line.find(':');
    size_t c2 = c1 == std::string::npos ? c1 : line.find(':', c1 + 1);
    if (c2 == std::string::npos) continue;
    bool v2 = c2 == c1 + 1;
    if (!v2 && line.compare(c1 + 1, c2 - c1 - 1, "memory") != 0) continue;
    std::string root = v2 ? mount : mount + "/memory";
    std::string path = line.substr(c2 + 1);
    for (;;) {
      room = std::min(room, v2 ? cgroup_level_room(root + path, "memory.max",
                                                   "memory.current")
                               : cgroup_level_room(root + path,
                                                   "memory.limit_in_bytes",
                                                   "memory.usage_in_bytes"));
      size_t slash = path.rfind('/');
      if (path.size() <= 1 || slash == std::string::npos) break;
      path.resize(slash);
    }
  }
  return room;
}

}  // namespace internal

class spill_file {
 public:
  spill_file() = default;

  // Creates an unlinked temp file of `bytes` bytes and maps it read/write.
  // Throws std::runtime_error (with errno text) when the directory is not
  // writable, the filesystem is full, or the mapping fails.
  explicit spill_file(size_t bytes) : size_(bytes) {
    if (bytes == 0) return;
    const char* dir = env_cstr("PARSEMI_SPILL_DIR");
    if (dir == nullptr) dir = env_cstr("TMPDIR");
    if (dir == nullptr) dir = "/tmp";
    std::string path = std::string(dir) + "/parsemi-spill-XXXXXX";
    int fd = ::mkstemp(path.data());
    if (fd < 0) fail("mkstemp", path);
    // Unlink before anything can go wrong: from here on the file has no
    // name, and its space dies with the last descriptor/mapping.
    ::unlink(path.c_str());
    // Reserve the blocks up front: a full disk (or RLIMIT_FSIZE) then fails
    // here as an exception, not later as SIGBUS on a page of the shared
    // mapping. Filesystems without fallocate get a sparse ftruncate —
    // glibc's posix_fallocate emulation would write every block instead.
    if (::fallocate(fd, 0, 0, static_cast<off_t>(bytes)) != 0) {
      if (errno != EOPNOTSUPP) close_and_fail(fd, "fallocate", path);
      if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0)
        close_and_fail(fd, "ftruncate", path);
    }
    void* p =
        ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    // The mapping keeps the inode alive; the descriptor is no longer needed.
    ::close(fd);
    if (p == MAP_FAILED) fail("mmap", path);
    data_ = static_cast<std::byte*>(p);
    // The driver writes every byte of the run during its partition. When
    // the run fits in free memory and under the process's cgroup memory
    // limits, one call faults its page cache in a batch now, instead of
    // one write fault per 4 KiB page across the workers later. A larger
    // run would be written back to disk as zeros before the partition
    // overwrites it, so it faults lazily. A hint only: kernels before 5.14
    // reject it with EINVAL, and a full disk already failed at fallocate.
    if (bytes <= std::min(free_memory_bytes(), internal::cgroup_memory_room()))
      ::madvise(p, bytes, MADV_POPULATE_WRITE);
  }

  ~spill_file() { reset(); }

  spill_file(spill_file&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  spill_file& operator=(spill_file&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  spill_file(const spill_file&) = delete;
  spill_file& operator=(const spill_file&) = delete;

  std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

  template <typename T>
  std::span<T> as_span() const {
    return std::span<T>(reinterpret_cast<T*>(data_), size_ / sizeof(T));
  }

  // Readahead hints over a byte subrange (clamped; no-ops on an empty
  // file). willneed starts readahead for the next shard's run; dontneed
  // drops a consumed run's pages so they stop competing with the budgeted
  // working set.
  void advise_willneed(size_t offset, size_t bytes) const {
    advise(offset, bytes, MADV_WILLNEED);
  }
  void advise_dontneed(size_t offset, size_t bytes) const {
    advise(offset, bytes, MADV_DONTNEED);
  }
  void advise_sequential() const { advise(0, size_, MADV_SEQUENTIAL); }

  // Unmaps (and thereby frees) the run early; the object becomes empty.
  void reset() {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }

 private:
  // Free physical memory (MemFree, not MemAvailable: page cache that
  // would have to be reclaimed does not count).
  static size_t free_memory_bytes() {
    long pages = ::sysconf(_SC_AVPHYS_PAGES);
    long page = ::sysconf(_SC_PAGESIZE);
    return pages > 0 && page > 0
               ? static_cast<size_t>(pages) * static_cast<size_t>(page)
               : 0;
  }

  [[noreturn]] static void close_and_fail(int fd, const char* what,
                                         const std::string& path) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    fail(what, path);
  }

  [[noreturn]] static void fail(const char* what, const std::string& path) {
    throw std::runtime_error(std::string("parsemi::spill_file: ") + what +
                             " failed for " + path + ": " +
                             std::strerror(errno));
  }

  void advise(size_t offset, size_t bytes, int adv) const {
    if (data_ == nullptr || offset >= size_) return;
    bytes = std::min(bytes, size_ - offset);
    // Page-align down; madvise rejects unaligned starts.
    size_t page = 4096;
    size_t lo = (offset / page) * page;
    ::madvise(data_ + lo, bytes + (offset - lo), adv);
  }

  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace parsemi
