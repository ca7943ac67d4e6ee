// Shared pieces of the end-to-end benchmark: sample statistics, the span
// recorder, the recording store decorator and the outcome checks.
//
// Everything here sits OUTSIDE the library: spans are taken around calls
// into the library's public functions, and the decorator wraps the virtual
// cloud::CloudStore surface the system layer already takes by reference.
// selftest.cpp feeds every check a deliberately wrong outcome.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/store.h"
#include "system/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process, in milliseconds: every thread of it, so
/// the caller, the library's pool and an in-process server alike. Under a
/// hypervisor with paravirtual steal accounting (Linux's default as a KVM
/// guest) it leaves out the time the host gave this guest's CPUs to other
/// guests, which wall time counts in full.
inline double cpu_clock_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}
inline double process_cpu_ms() { return cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread alone.
inline double thread_cpu_ms() { return cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID); }

/// Wall time, process CPU time and the calling thread's share of the
/// latter, over one interval.
struct Lap {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double thread_cpu_ms = 0.0;
};

/// The process's CPU time over `lap` with the calling thread's share
/// scaled by a host-speed factor (see HostSpeed).
inline double scaled_cpu_ms(const Lap& lap, double factor) {
  return lap.thread_cpu_ms * factor + (lap.cpu_ms - lap.thread_cpu_ms);
}

class Stopwatch {
 public:
  Lap lap() const {
    return {ms_since(wall0_), process_cpu_ms() - cpu0_, thread_cpu_ms() - thread0_};
  }
  double wall_ms() const { return ms_since(wall0_); }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = process_cpu_ms();
  double thread0_ = thread_cpu_ms();
};

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile with at least ten samples beyond it (p99 needs
/// 1000 samples, p90 needs 100); the median below 40 samples, where no
/// percentile is a tail.
inline double tail(const std::vector<double>& v) {
  if (v.size() >= 1000) return quantile(v, 0.99);
  if (v.size() >= 100) return quantile(v, 0.90);
  if (v.size() >= 40) return quantile(v, 0.75);
  return median(v);
}

// ------------------------------------------------------------- host speed

/// How fast the benchmark's own thread runs right now, from a fixed kernel
/// the benchmark owns: a chain of 4-limb Montgomery multiplications, the
/// arithmetic the library's pairing and curve code spends its time in,
/// written here so that no change to the library can speed it up or slow
/// it down. On a shared host the same serial code takes up to twice the
/// CPU time in a slow spell (another tenant on the physical core under
/// the thread's vCPU), and CPU time cannot tell that apart from slower
/// code. The run brackets the operations it times many times a run with
/// chunks of the kernel, on the thread that calls the library, and scales
/// that thread's share of an operation's CPU time by kReferenceChunkMs /
/// the median of the chunks around it: CPU time as it would read on a host
/// where a chunk takes kReferenceChunkMs. The library pool's share is left
/// as measured, since the kernel does not run on the pool's vCPUs.
class HostSpeed {
 public:
  /// About the median CPU time of one chunk on the 4-vCPU 2.0 GHz Xeon VM
  /// the README's figures come from (0.7–1.6 ms there, by spell). Only the
  /// unit of the scaled timings depends on it; comparisons do not.
  static constexpr double kReferenceChunkMs = 1.25;
  static constexpr int kMulsPerChunk = 20000;

  /// Runs `chunks` chunks of the kernel and records the CPU time each one
  /// took on the calling thread.
  void sample(int chunks) {
    for (int i = 0; i < chunks; ++i) {
      double c0 = thread_cpu_ms();
      for (int k = 0; k < kMulsPerChunk; ++k) mont_mul(x_, x_, y_);
      double ms = thread_cpu_ms() - c0;
      chunk_ms_.push_back(ms);
      spent_ms_ += ms;
    }
    sink_ ^= x_[0];
  }
  /// Where the next chunk will be recorded, for factor_since().
  std::size_t mark() const { return chunk_ms_.size(); }
  /// kReferenceChunkMs / the median of the chunks recorded since `mark`.
  double factor_since(std::size_t mark) const {
    std::vector<double> recent(chunk_ms_.begin() + static_cast<std::ptrdiff_t>(mark),
                               chunk_ms_.end());
    double m = median(recent);
    return m > 0 ? kReferenceChunkMs / m : 1.0;
  }
  double factor() const { return factor_since(0); }
  double median_chunk_ms() const { return median(chunk_ms_); }
  std::size_t chunks() const { return chunk_ms_.size(); }
  /// CPU time the kernel has taken so far, to leave out of phase totals.
  double spent_ms() const { return spent_ms_; }
  std::uint64_t sink() const { return sink_; }

 private:
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  // The BN254 base-field prime, little-endian limbs.
  static constexpr u64 kM[4] = {0x3c208c16d87cfd47ull, 0x97816a916871ca8dull,
                                0xb85045b68181585dull, 0x30644e72e131a029ull};
  static constexpr u64 minus_inv() {
    u64 inv = 1;
    for (int i = 0; i < 6; ++i) inv *= 2 - kM[0] * inv;  // Newton: m^-1 mod 2^64
    return ~inv + 1;
  }
  /// r = a * b / 2^256 mod m (CIOS, branch-free final subtraction).
  static void mont_mul(u64 r[4], const u64 a[4], const u64 b[4]) {
    constexpr u64 kMinv = minus_inv();
    u64 t[6] = {};
    for (int i = 0; i < 4; ++i) {
      u128 c = 0;
      for (int j = 0; j < 4; ++j) {
        c += static_cast<u128>(a[j]) * b[i] + t[j];
        t[j] = static_cast<u64>(c);
        c >>= 64;
      }
      c += t[4];
      t[4] = static_cast<u64>(c);
      t[5] = static_cast<u64>(c >> 64);
      u64 u = t[0] * kMinv;
      c = (static_cast<u128>(u) * kM[0] + t[0]) >> 64;
      for (int j = 1; j < 4; ++j) {
        c += static_cast<u128>(u) * kM[j] + t[j];
        t[j - 1] = static_cast<u64>(c);
        c >>= 64;
      }
      c += t[4];
      t[3] = static_cast<u64>(c);
      t[4] = t[5] + static_cast<u64>(c >> 64);
    }
    u64 d[4];
    u128 borrow = 0;
    for (int j = 0; j < 4; ++j) {
      u128 diff = static_cast<u128>(t[j]) - kM[j] - borrow;
      d[j] = static_cast<u64>(diff);
      borrow = (diff >> 64) & 1;
    }
    u64 keep = u64{0} - static_cast<u64>(borrow & (t[4] == 0));  // t < m
    for (int j = 0; j < 4; ++j) r[j] = (t[j] & keep) | (d[j] & ~keep);
  }

  u64 x_[4] = {1, 2, 3, 4};
  u64 y_[4] = {5, 6, 7, 8};
  u64 sink_ = 0;
  std::vector<double> chunk_ms_;
  double spent_ms_ = 0.0;
};

// ------------------------------------------------------------------ spans

/// One timed interval at a layer boundary. `op` groups the spans of one
/// operation; `parent` indexes the span that caused this one (-1 = root).
struct Span {
  std::uint64_t op = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
};

/// In-memory span log. Operations run one at a time from the benchmark's
/// thread, so the open root span is simply the last one begun.
class Tracer {
 public:
  bool enabled = false;

  /// Opens a root span for a new operation; returns its index (-1 if off).
  int begin_op(std::string name) {
    if (!enabled) return -1;
    ++op_;
    spans_.push_back({op_, std::move(name), now_ms(), 0.0, -1});
    root_ = static_cast<int>(spans_.size()) - 1;
    return root_;
  }
  void end_op(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
    root_ = -1;
  }
  /// Records a completed child span of the open operation.
  void child(std::string name, double start_ms, double end_ms) {
    if (!enabled) return;
    spans_.push_back({op_, std::move(name), start_ms, end_ms, root_});
  }
  double now_ms() const { return ms_since(epoch_); }

  /// Root duration minus the time its children cover (children never
  /// overlap: the store calls of one operation are sequential).
  double self_ms(int index) const {
    const Span& root = spans_[static_cast<std::size_t>(index)];
    double covered = 0.0;
    for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size();
         ++i) {
      if (spans_[i].parent == index) covered += spans_[i].end_ms - spans_[i].start_ms;
    }
    return (root.end_ms - root.start_ms) - covered;
  }
  double child_ms(int index) const {
    const Span& root = spans_[static_cast<std::size_t>(index)];
    return (root.end_ms - root.start_ms) - self_ms(index);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::uint64_t op_ = 0;
  int root_ = -1;
};

// ------------------------------------------------------ recording decorator

/// Calls and bytes one decorator saw. `gets` counts get and get_versioned;
/// `lists` is counted apart (the store's own CloudStats folds it into gets).
/// `others` counts the version probes, long polls and stats reads, which
/// move no object bytes but are round trips over the wire.
struct StoreCounts {
  std::uint64_t puts = 0, cas = 0, gets = 0, lists = 0, erases = 0, others = 0;
  std::uint64_t bytes_up = 0, bytes_down = 0;
  double busy_ms = 0.0;

  /// Every call that reaches the store behind this decorator.
  [[nodiscard]] std::uint64_t calls() const {
    return puts + cas + gets + lists + erases + others;
  }
  StoreCounts operator-(const StoreCounts& o) const {
    return {puts - o.puts,   cas - o.cas,       gets - o.gets,
            lists - o.lists, erases - o.erases, others - o.others,
            bytes_up - o.bytes_up, bytes_down - o.bytes_down,
            busy_ms - o.busy_ms};
  }
  StoreCounts& operator+=(const StoreCounts& o) {
    puts += o.puts; cas += o.cas; gets += o.gets; lists += o.lists;
    erases += o.erases; others += o.others; bytes_up += o.bytes_up;
    bytes_down += o.bytes_down; busy_ms += o.busy_ms;
    return *this;
  }
};

/// Forwards every call to `inner`, counting calls and bytes and recording a
/// child span per call when the tracer is on.
class RecordingStore : public ibbe::cloud::CloudStore {
 public:
  RecordingStore(ibbe::cloud::CloudStore& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::uint64_t put(const std::string& path, ibbe::util::Bytes value) override {
    auto size = value.size();
    return timed("store.put", [&] {
      auto v = inner_.put(path, std::move(value));
      ++counts_.puts;
      counts_.bytes_up += size;
      return v;
    });
  }
  std::optional<std::uint64_t> put_cas(const std::string& path,
                                       ibbe::util::Bytes value,
                                       std::uint64_t expected) override {
    auto size = value.size();
    return timed("store.cas", [&] {
      auto v = inner_.put_cas(path, std::move(value), expected);
      ++counts_.cas;
      if (v) counts_.bytes_up += size;
      return v;
    });
  }
  std::optional<ibbe::util::Bytes> get(const std::string& path) const override {
    return timed("store.get", [&] {
      auto v = inner_.get(path);
      ++counts_.gets;
      if (v) counts_.bytes_down += v->size();
      return v;
    });
  }
  std::optional<Versioned> get_versioned(const std::string& path) const override {
    return timed("store.get", [&] {
      auto v = inner_.get_versioned(path);
      ++counts_.gets;
      if (v) counts_.bytes_down += v->value.size();
      return v;
    });
  }
  std::uint64_t file_version(const std::string& path) const override {
    return timed("store.version", [&] {
      ++counts_.others;
      return inner_.file_version(path);
    });
  }
  bool erase(const std::string& path) override {
    return timed("store.erase", [&] {
      bool v = inner_.erase(path);
      ++counts_.erases;
      return v;
    });
  }
  std::vector<std::string> list(const std::string& prefix) const override {
    return timed("store.list", [&] {
      auto v = inner_.list(prefix);
      ++counts_.lists;
      return v;
    });
  }
  std::uint64_t dir_version(const std::string& dir) const override {
    return timed("store.version", [&] {
      ++counts_.others;
      return inner_.dir_version(dir);
    });
  }
  std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override {
    return timed("store.poll", [&] {
      ++counts_.others;
      return inner_.long_poll(dir, since, timeout);
    });
  }
  ibbe::cloud::CloudStats stats() const override {
    ++counts_.others;
    return inner_.stats();
  }
  std::size_t stored_bytes() const override {
    ++counts_.others;
    return inner_.stored_bytes();
  }

  [[nodiscard]] const StoreCounts& counts() const { return counts_; }

 private:
  template <typename F>
  auto timed(const char* name, F&& f) const -> decltype(f()) {
    double t0 = tracer_.now_ms();
    struct Finish {  // records the span on every exit path, throws included
      const RecordingStore& self;
      const char* name;
      double t0;
      ~Finish() {
        double t1 = self.tracer_.now_ms();
        self.counts_.busy_ms += t1 - t0;
        self.tracer_.child(name, t0, t1);
      }
    } finish{*this, name, t0};
    return f();
  }

  ibbe::cloud::CloudStore& inner_;
  Tracer& tracer_;
  mutable StoreCounts counts_;
};

// ------------------------------------------------------------------ checks
//
// Each returns std::nullopt when the outcome has the property the method
// guarantees, else a one-line description of the violation.

using Status = ibbe::system::ClientApi::FetchStatus;
using Verdict = std::optional<std::string>;

inline const char* status_name(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::not_member: return "not_member";
    case Status::stale: return "stale";
    case Status::forked: return "forked";
    case Status::unavailable: return "unavailable";
  }
  return "?";
}

/// A fetch returned the verdict membership implies, with a key iff `ok`.
inline Verdict check_fetch(const ibbe::system::ClientApi::FetchResult& r,
                           bool member, const std::string& who) {
  Status want = member ? Status::ok : Status::not_member;
  if (r.status != want) {
    return who + ": fetch returned " + status_name(r.status) + ", expected " +
           status_name(want);
  }
  if (member && (!r.key || r.key->empty())) return who + ": ok without a key";
  return std::nullopt;
}

/// Members of different partitions of one epoch derive one key.
inline Verdict check_same_key(const ibbe::util::Bytes& a,
                              const ibbe::util::Bytes& b,
                              const std::string& what) {
  if (a != b) return what + ": keys differ";
  return std::nullopt;
}

/// A revocation rotated the group key.
inline Verdict check_rotated(const ibbe::util::Bytes& before,
                             const ibbe::util::Bytes& after,
                             const std::string& what) {
  if (before == after) return what + ": key did not rotate";
  return std::nullopt;
}

inline Verdict check_count(std::size_t got, std::size_t want,
                           const std::string& what) {
  if (got != want) {
    return what + ": " + std::to_string(got) + " != " + std::to_string(want);
  }
  return std::nullopt;
}

/// Members whose keys were compared sat in at least `min` distinct
/// partitions, so the comparison crossed partitions.
inline Verdict check_partitions_spanned(
    const std::vector<ibbe::system::PartitionId>& hosts, std::size_t min,
    const std::string& what) {
  std::set<ibbe::system::PartitionId> distinct(hosts.begin(), hosts.end());
  if (distinct.size() < min) {
    return what + ": " + std::to_string(distinct.size()) +
           " distinct partitions, at least " + std::to_string(min) + " expected";
  }
  return std::nullopt;
}

/// Two member sets are equal as sets (order and duplicates aside).
inline Verdict check_member_set(std::vector<std::string> got,
                                std::vector<std::string> want,
                                const std::string& what) {
  std::set<std::string> a(got.begin(), got.end()), b(want.begin(), want.end());
  if (a.size() != got.size()) return what + ": duplicate members";
  if (a != b) {
    return what + ": " + std::to_string(a.size()) + " members read, " +
           std::to_string(b.size()) + " expected, sets differ";
  }
  return std::nullopt;
}

/// The decorators' call and byte totals equal what the backing store
/// counted over the same interval (its CloudStats counts put_cas as a put
/// and list as a get).
inline Verdict check_store_accounting(const StoreCounts& seen,
                                      const ibbe::cloud::CloudStats& before,
                                      const ibbe::cloud::CloudStats& after) {
  auto d = [](std::uint64_t a, std::uint64_t b) { return a - b; };
  if (seen.bytes_up != d(after.bytes_uploaded, before.bytes_uploaded) ||
      seen.bytes_down != d(after.bytes_downloaded, before.bytes_downloaded)) {
    return "decorator bytes " + std::to_string(seen.bytes_up) + "/" +
           std::to_string(seen.bytes_down) + " != store bytes " +
           std::to_string(d(after.bytes_uploaded, before.bytes_uploaded)) + "/" +
           std::to_string(d(after.bytes_downloaded, before.bytes_downloaded));
  }
  if (seen.puts + seen.cas != d(after.puts, before.puts) ||
      seen.gets + seen.lists != d(after.gets, before.gets) ||
      seen.erases != d(after.erases, before.erases)) {
    return "decorator call counts differ from the store's";
  }
  return std::nullopt;
}

}  // namespace perfbench
