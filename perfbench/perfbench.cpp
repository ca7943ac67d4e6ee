// End-to-end benchmark of the IBBE-SGX stack: the real AdminApi, IbbeEnclave,
// CloudStore (or NetServer + RemoteStore) and ClientApi, driven through one
// of three seeded workloads (README.md explains each and what it stresses).
//
//   perfbench --workload revoke_1m|join_1m|trace_wire --seed N --seconds S
//             --trace 0|1 [--rev TEXT]
//
// Every membership operation and fetch is an attempted op; an op whose
// outcome fails a check (check_* in harness.h) or that throws is a failed
// op, and the process exits 1. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Lines before it start with
// "# " and carry the host fingerprint and a readable table. End-to-end
// timings are CPU time, scaled for the host's speed where an operation is
// timed many times a run (end_to_end_metrics and HostSpeed say why).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bigint/mont_backend.h"
#include "crypto/gcm.h"
#include "ec/curves.h"
#include "harness.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "pki/ecdsa.h"
#include "system/admin.h"
#include "system/oplog.h"
#include "trace/trace.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;
using ibbe::cloud::CloudStore;
using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::ClientApi;
using ibbe::util::Bytes;

// ------------------------------------------------------------ run options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
};

// The paper's large deployment (§VI): 10^6 members in partitions of 1000.
constexpr std::size_t kMillion = 1'000'000;
constexpr std::size_t kBigPartition = 1000;
// join_1m: adds between two warm fetches. Two warm clients alternate, so
// each folds 2 * kAddsPerRound deltas per fetch — inside the admin's
// default 64-delta retention window, so the fold path (not a snapshot) runs.
constexpr std::size_t kAddsPerRound = 24;
// Each add rewrites the shard of the partition that is filling, so an add
// costs more time and bytes as the partition fills: join_1m takes its add
// figures over its first kWindowRounds rounds, the same adds in every run,
// and runs at least that many rounds whatever --seconds says.
constexpr std::size_t kWindowRounds = 42;  // 1008 adds: enough for a p99
// Fresh clients whose first fetch is timed, per 10^6 run (median reported).
constexpr int kColdFetches = 3;
// revoke_1m: a round (one revocation, then a warm fetch of the rotated
// bundle) takes 1.3–2.4 s on a 4-core host, so a run makes at least this
// many rounds whatever --seconds says. The CPU time of a round varies by a
// few percent, so the median of eight is steady.
constexpr std::size_t kRevokeRounds = 8;
// trace_wire: the Linux-kernel-shaped trace compressed to kTraceTotal ops
// with a live set peaking at kTracePeak, replayed for its first
// kTracePrefix ops at |p| = kTracePartition; clients fetch every
// kTraceFetchEvery ops.
constexpr std::size_t kTraceTotal = 1000;
constexpr std::size_t kTracePeak = 64;
constexpr std::size_t kTracePrefix = 150;
// |p| = 2: the live set of the prefix is 2–14 members, so the group spans
// two or more partitions after 138 of the 150 ops (up to 7).
constexpr std::size_t kTracePartition = 2;
constexpr std::size_t kTraceFetchEvery = 5;
constexpr std::uint64_t kTraceShapeSeed = 1;
constexpr int kTraceSetups = 25;
// Host-speed kernel chunks (about 1.25 ms each; see HostSpeed) taken before
// and again after each mutation, warm fetch, and trace_wire set-up and cold
// fetch.
constexpr int kChunksPerMutation = 1;
constexpr int kChunksPerFetch = 2;

// ------------------------------------------------------------ bookkeeping

/// Attempted/failed ops and the first failures, for the final JSON.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Runs one op; `f` returns its check verdict. Exceptions fail the op.
  bool op(const std::string& what, const std::function<Verdict()>& f) {
    ++attempted;
    Verdict v;
    try {
      v = f();
    } catch (const std::exception& e) {
      v = what + ": threw " + e.what();
    }
    if (!v) return true;
    ++failed;
    if (errors.size() < 8) errors.push_back(*v);
    std::fprintf(stderr, "perfbench: FAILED %s\n", v->c_str());
    return false;
  }
};

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One timing's samples, in the unit of its metric: the scaled CPU time
/// (what the end-to-end metrics report), and the raw CPU and wall times
/// (shown in the readable table only; wall time also counts the time the
/// shared host gave this machine's CPUs to others).
struct Timing {
  std::vector<double> cpu, raw_cpu, thread_share, wall;
  void add(const Lap& lap, double factor, double ms_per_unit = 1.0) {
    cpu.push_back(scaled_cpu_ms(lap, factor) / ms_per_unit);
    raw_cpu.push_back(lap.cpu_ms / ms_per_unit);
    thread_share.push_back(lap.cpu_ms > 0 ? lap.thread_cpu_ms / lap.cpu_ms : 1.0);
    wall.push_back(lap.wall_ms / ms_per_unit);
  }
};

/// Runs `f` between two bursts of `chunks` host-speed chunks; returns its
/// lap (the chunks left out) and the speed factor of the chunks around it.
template <typename F>
std::pair<Lap, double> bracketed(HostSpeed& speed, int chunks, F&& f) {
  std::size_t mark = speed.mark();
  speed.sample(chunks);
  Stopwatch watch;
  f();
  Lap lap = watch.lap();
  speed.sample(chunks);
  return {lap, speed.factor_since(mark)};
}

/// Samples the end-to-end metrics are taken from (medians unless noted).
struct Samples {
  Timing setup, create, mutation, fetch, fetch_cold;  // s, s, ms, ms, s
  std::vector<double> mutation_cpu_traced, mutation_cpu_plain;  // --trace 1
  std::vector<double> admin_self_ms, client_self_ms;            // --trace 1
  std::uint64_t mutations = 0, fetches = 0;
  std::uint64_t up_bytes = 0, down_bytes = 0;
  // Mutations are sampled (time, bytes, calls) only while this is set.
  bool in_window = true;
  Lap phase;                    // the measured phase
  std::uint64_t phase_ops = 0;  // membership ops applied in it
  HostSpeed speed;              // kernel chunks around every timed op
  double phase_speed_ms = 0.0;  // the kernel's CPU time inside the phase
  double phase_factor = 1.0;    // and the speed factor of its chunks
  StoreCounts admin_calls, fetch_calls;  // over mutations / warm fetches
  std::uint64_t ecalls = 0;
  double group_bytes = 0.0;
};

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

/// Steal time of all CPUs so far, in seconds, from /proc/stat (0 where the
/// kernel does not report it).
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  return cpu == "cpu" ? field[7] / 100.0 : 0.0;  // USER_HZ ticks
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Seed-derived, collision-free identities: prefix, index, and a tag that
/// changes with the seed so every seed hashes to different IBBE scalars.
std::vector<Identity> make_ids(const std::string& prefix, std::uint64_t seed,
                               std::size_t first, std::size_t n) {
  std::vector<Identity> ids;
  ids.reserve(n);
  char buf[48];
  for (std::size_t i = first; i < first + n; ++i) {
    std::uint64_t h = (seed + 1) * 0x9e3779b97f4a7c15ull ^ (i * 0xbf58476d1ce4e5b9ull);
    h ^= h >> 31;
    std::snprintf(buf, sizeof buf, "%s%07zu.%04x", prefix.c_str(), i,
                  static_cast<unsigned>(h & 0xffff));
    ids.emplace_back(buf);
  }
  return ids;
}

/// Member lists as stored, read straight from the backing store's shards
/// (no wire, no client): partition id -> members.
std::map<ibbe::system::PartitionId, std::vector<Identity>> stored_partitions(
    const CloudStore& backing, const std::string& gid) {
  using namespace ibbe::system;
  auto env = SignedEnvelope::from_bytes(backing.get(index_path(gid)).value());
  auto manifest = GroupManifest::from_bytes(env.payload);
  std::map<PartitionId, std::vector<Identity>> out;
  for (const auto& ref : manifest.shards) {
    auto senv = SignedEnvelope::from_bytes(
        backing.get(shard_path(gid, ref.sid)).value());
    for (auto& [pid, members] : IndexShard::from_bytes(senv.payload).partitions) {
      out[pid] = std::move(members);
    }
  }
  return out;
}

/// Bytes stored under the group's directory (the paper's footprint).
double group_bytes(const CloudStore& backing, const std::string& gid) {
  double total = 0;
  for (const auto& path : backing.list(ibbe::system::group_dir(gid))) {
    if (auto v = backing.get(path)) total += static_cast<double>(v->size());
  }
  return total;
}

// ---------------------------------------------------------- one deployment

/// One member's client with its own decorated view of the store.
struct Member {
  Identity id;
  RecordingStore* store = nullptr;  // owned by the Deployment
  std::unique_ptr<ClientApi> client;
};

/// Admin, enclave and clients over one backing store; the 1m workloads use
/// it in-process, trace_wire puts a NetServer and one RemoteStore per role
/// between the parties and the backing store.
class Deployment {
 public:
  Deployment(const Options& opt, std::size_t partition_size, bool networked) {
    enclave_ = std::make_unique<ibbe::enclave::IbbeEnclave>(
        platform_, partition_size, opt.seed);
    if (networked) {
      ibbe::net::NetServerConfig scfg;
      scfg.identity_seed = opt.seed + 77;
      server_ = std::make_unique<ibbe::net::NetServer>(backing_, scfg);
    }
    admin_store_ = &decorate(connection());
    direct_ = &decorate(backing_);
    AdminConfig cfg;
    cfg.partition_size = partition_size;
    cfg.log_operations = networked;  // the networked deployment audits
    ibbe::crypto::Drbg key_rng(opt.seed * 31 + 7);
    admin_ = std::make_unique<AdminApi>(
        *enclave_, *admin_store_, ibbe::pki::EcdsaKeyPair::generate(key_rng),
        cfg, opt.seed);
  }

  /// A fresh member client on `wire` (nullptr: a new connection of its own).
  Member member(const Identity& id, CloudStore* wire = nullptr) {
    Member m;
    m.id = id;
    m.store = &decorate(wire ? *wire : connection());
    m.client = std::make_unique<ClientApi>(*m.store, enclave_->public_key(),
                                           enclave_->ecall_extract_user_key(id),
                                           admin_->verification_point());
    if (server_) {
      m.client->set_retry_policy(ibbe::util::RetryPolicy{}.without_delays());
      m.client->enable_freshness(enclave_->freshness_verification_key());
      m.client->enable_gossip(id);
    }
    return m;
  }

  /// A new connection: a RemoteStore to the server, or the backing store.
  CloudStore& connection() {
    if (!server_) return backing_;
    ibbe::net::RemoteStoreConfig cfg;
    cfg.port = server_->port();
    cfg.server_identity = server_->identity_key();
    cfg.retry = ibbe::util::RetryPolicy{}.without_delays();
    cfg.request_deadline = std::chrono::milliseconds(10'000);
    wires_.push_back(std::make_unique<ibbe::net::RemoteStore>(cfg));
    return *wires_.back();
  }

  /// Every call the parties (and the benchmark's own direct reads) made
  /// crossed a decorator: their totals equal the backing store's
  /// CloudStats, and over the wire each call is one request served.
  Verdict check_accounting() const {
    StoreCounts wire = wire_counts(), all = wire;
    all += direct_->counts();
    if (auto v = check_store_accounting(all, ibbe::cloud::CloudStats{},
                                        backing_.stats())) {
      return v;
    }
    if (!server_) return std::nullopt;
    return check_count(server_->stats().requests_served, wire.calls(),
                       "requests served vs client calls");
  }
  /// Calls of the parties' decorators (all but direct()).
  StoreCounts wire_counts() const {
    StoreCounts c;
    for (const auto& s : stores_) {
      if (s.get() != direct_) c += s->counts();
    }
    return c;
  }

  Tracer tracer;
  AdminApi& admin() { return *admin_; }
  ibbe::enclave::IbbeEnclave& enclave() { return *enclave_; }
  CloudStore& backing() { return backing_; }
  /// The benchmark's own reads of the stored state, past any wire.
  RecordingStore& direct() { return *direct_; }
  RecordingStore& admin_store() { return *admin_store_; }
  ibbe::net::NetServer* server() { return server_.get(); }

 private:
  ibbe::sgx::EnclavePlatform platform_{"perfbench"};
  std::unique_ptr<ibbe::enclave::IbbeEnclave> enclave_;
  CloudStore backing_;
  std::unique_ptr<ibbe::net::NetServer> server_;
  RecordingStore& decorate(CloudStore& inner) {
    stores_.push_back(std::make_unique<RecordingStore>(inner, tracer));
    return *stores_.back();
  }

  // Destroyed before the server: each holds a live session to it.
  std::vector<std::unique_ptr<ibbe::net::RemoteStore>> wires_;
  std::vector<std::unique_ptr<RecordingStore>> stores_;
  RecordingStore* admin_store_ = nullptr;
  RecordingStore* direct_ = nullptr;
  std::unique_ptr<AdminApi> admin_;
};

/// Times one admin mutation and charges its bytes, calls, ecalls and spans.
struct Timed {
  Deployment& d;
  Samples& s;
  Outcome& out;

  bool mutation(const std::string& what, const std::function<void()>& call,
                const std::function<Verdict()>& check = [] { return Verdict{}; }) {
    return out.op(what, [&]() -> Verdict {
      auto before = d.backing().stats();
      auto calls0 = d.admin_store().counts();
      auto ecalls0 = d.enclave().ecall_count();
      bool traced = d.tracer.enabled;
      int span = d.tracer.begin_op(what);
      auto [lap, factor] = bracketed(s.speed, kChunksPerMutation, call);
      d.tracer.end_op(span);
      if (!s.in_window) return check();
      s.mutation.add(lap, factor);
      (traced ? s.mutation_cpu_traced : s.mutation_cpu_plain).push_back(s.mutation.cpu.back());
      if (span >= 0) s.admin_self_ms.push_back(d.tracer.self_ms(span));
      ++s.mutations;
      s.up_bytes += d.backing().stats().bytes_uploaded - before.bytes_uploaded;
      s.admin_calls += d.admin_store().counts() - calls0;
      s.ecalls += d.enclave().ecall_count() - ecalls0;
      return check();
    });
  }

  /// A warm member's fetch after a change; `check` sees the result.
  bool fetch(Member& m, const std::string& gid,
             const std::function<Verdict(const ClientApi::FetchResult&)>& check) {
    return out.op("fetch " + m.id, [&]() -> Verdict {
      auto before = d.backing().stats();
      auto calls0 = m.store->counts();
      int span = d.tracer.begin_op("fetch");
      ClientApi::FetchResult r;
      auto [lap, factor] = bracketed(s.speed, kChunksPerFetch,
                                     [&] { r = m.client->fetch(gid); });
      d.tracer.end_op(span);
      if (auto v = check(r)) return v;
      s.fetch.add(lap, factor);
      if (span >= 0) s.client_self_ms.push_back(d.tracer.self_ms(span));
      ++s.fetches;
      s.down_bytes +=
          d.backing().stats().bytes_downloaded - before.bytes_downloaded;
      s.fetch_calls += m.store->counts() - calls0;
      return std::nullopt;
    });
  }
};

// ------------------------------------------------------------ layer probes

/// Mean wall time of `reps` calls of `f`, in microseconds.
template <typename F>
double mean_us(int reps, F&& f) {
  auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) f();
  return ms_since(t0) * 1000.0 / reps;
}

/// Times direct calls into the lower layers' public functions on the state
/// the run left: the stored bundle, shards and manifest, one member's
/// partition, and the enclave.
void probe_layers(Deployment& d, const std::string& gid, const Member& m,
                  std::size_t scale_reps, Metrics& out) {
  using namespace ibbe::system;
  auto& backing = d.backing();
  auto menv_bytes = backing.get(index_path(gid)).value();
  auto menv = SignedEnvelope::from_bytes(menv_bytes);
  auto manifest = GroupManifest::from_bytes(menv.payload);
  out["system.manifest_bytes"] = {static_cast<double>(menv_bytes.size()), "B"};
  auto oplog = backing.get(oplog_path(gid));
  out["system.oplog_bytes"] = {oplog ? static_cast<double>(oplog->size()) : 0.0,
                               "B"};

  // Bundle parse, and the G2 decode (with subgroup check) under it.
  auto benv = SignedEnvelope::from_bytes(
      backing.get(cipher_bundle_path(gid, manifest.cipher_set)).value());
  CipherBundle bundle;
  int reps = static_cast<int>(scale_reps);
  out["system.bundle_parse_ms"] = {
      mean_us(reps, [&] { bundle = CipherBundle::from_bytes(benv.payload); }) /
          1000.0,
      "ms"};
  auto g2 = ibbe::ec::g2_to_bytes(bundle.entries.front().second.ct.c2);
  out["ec.g2_decode_us"] = {
      mean_us(64, [&] { (void)ibbe::ec::g2_from_bytes(g2, true); }), "us"};

  // Snapshot: what ClientApi::load_snapshot does after its store reads —
  // each shard's content hash against the manifest, its envelope signature
  // against the admin's key, then its member lists into a CachedIndex.
  std::vector<Bytes> shard_bytes;
  for (const auto& ref : manifest.shards) {
    shard_bytes.push_back(backing.get(shard_path(gid, ref.sid)).value());
  }
  const auto& admin_key = d.admin().verification_point();
  CachedIndex view;
  bool intact = true;
  out["system.snapshot_parse_ms"] = {
      mean_us(1, [&] {
        view = CachedIndex{};
        for (std::size_t i = 0; i < shard_bytes.size(); ++i) {
          const auto& b = shard_bytes[i];
          intact = content_hash(b) == manifest.shards[i].hash && intact;
          auto env = SignedEnvelope::from_bytes(b);
          intact = env.verify(admin_key) && intact;
          for (auto& [pid, members] : IndexShard::from_bytes(env.payload).partitions) {
            view.add_partition(pid, std::move(members));
          }
        }
        view.counter = manifest.freshness.counter;
        view.log_head = manifest.log_head;
      }) / 1000.0,
      "ms"};
  if (!intact) std::fprintf(stderr, "perfbench: probe shard failed its hash or signature\n");

  // Fold: a chain of one-add deltas into the snapshot (lookup map built, as
  // a warm client's is).
  auto host = view.find_user(m.id).value();  // also builds the lookup map
  const std::vector<Identity> receivers = *view.members_of(host);
  constexpr int kFolds = 32;
  std::vector<IndexDelta> deltas(kFolds);
  for (int i = 0; i < kFolds; ++i) {
    auto& dl = deltas[static_cast<std::size_t>(i)];
    dl.seq = view.counter + 1 + static_cast<std::uint64_t>(i);
    dl.prev_log_head = i == 0 ? view.log_head : deltas[static_cast<std::size_t>(i - 1)].log_head;
    dl.log_head = dl.prev_log_head;
    dl.log_head[0] ^= static_cast<std::uint8_t>(i + 1);
    DeltaOp op;
    op.kind = DeltaOp::Kind::add_member;
    op.user = "fold-probe-" + std::to_string(i);
    op.pid = host;
    dl.ops.push_back(op);
  }
  bool folded = true;
  int next = 0;
  out["system.delta_apply_us"] = {
      mean_us(kFolds, [&] { folded = view.apply(deltas[static_cast<std::size_t>(next++)]) && folded; }),
      "us"};
  if (!folded) std::fprintf(stderr, "perfbench: probe delta fold rejected\n");

  // IBBE decrypt of the member's partition, plain and prepared.
  const auto& pk = d.enclave().public_key();
  auto usk = d.enclave().ecall_extract_user_key(m.id);
  std::optional<CipherOverlay> overlay;
  const ibbe::enclave::PartitionCiphertext* pc = bundle.find(host);
  if (auto it = manifest.overlays.find(host); it != manifest.overlays.end()) {
    auto oenv = SignedEnvelope::from_bytes(
        backing.get(cipher_overlay_path(gid, it->second)).value());
    overlay = CipherOverlay::from_bytes(oenv.payload);
    pc = &overlay->cipher;
  }
  int drep = scale_reps > 1 ? 8 : 3;
  out["ibbe.decrypt_ms"] = {
      mean_us(drep, [&] { (void)ibbe::core::decrypt(pk, usk, receivers, pc->ct); }) / 1000.0,
      "ms"};
  auto prepared = ibbe::core::PreparedPartition::prepare(pk, usk, receivers).value();
  out["ibbe.decrypt_prepared_ms"] = {
      mean_us(drep, [&] { (void)ibbe::core::decrypt(prepared, pc->ct); }) / 1000.0,
      "ms"};

  // Enclave: Algorithm 3 over the live partitions, an O(1) add, attestation.
  auto& enc = d.enclave();
  std::vector<ibbe::core::BroadcastCiphertext> others;
  for (const auto& [pid, c] : bundle.entries) {
    if (pid != host) others.push_back(c.ct);
  }
  out["enclave.remove_ms"] = {
      mean_us(1, [&] { (void)enc.ecall_remove_user(pc->ct, others, m.id); }) / 1000.0,
      "ms"};
  out["enclave.add_us"] = {
      mean_us(32, [&] { (void)enc.ecall_add_user_to_partition(pc->ct, "add-probe"); }),
      "us"};
  out["enclave.attest_us"] = {
      mean_us(16, [&] {
        (void)enc.ecall_attest_freshness(gid, manifest.freshness.counter,
                                         manifest.gk_epoch, manifest.log_head);
      }),
      "us"};

  // PKI: the admin's ECDSA over a manifest-sized message.
  ibbe::crypto::Drbg rng(5);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto sig = key.sign(menv.payload);
  out["pki.sign_us"] = {mean_us(32, [&] { (void)key.sign(menv.payload); }), "us"};
  out["pki.verify_us"] = {
      mean_us(32, [&] {
        (void)ibbe::pki::ecdsa_verify(key.public_key(), menv.payload, sig);
      }),
      "us"};

  // The wire's AEAD: AES-256-GCM seal throughput on 256 KiB records.
  Bytes gcm_key(32, 7), nonce(12, 1), buf(256 * 1024, 0x5a);
  ibbe::crypto::Aes256Gcm gcm(gcm_key);
  double us = mean_us(8, [&] { (void)gcm.seal(nonce, buf); });
  out["crypto.gcm_mb_s"] = {static_cast<double>(buf.size()) / us, "MB/s"};
}

/// Per-layer metrics every workload derives from its samples and counters.
void layer_metrics(const Samples& s, Metrics& out) {
  double ops = std::max<double>(1.0, static_cast<double>(s.mutations));
  double fetches = std::max<double>(1.0, static_cast<double>(s.fetches));
  out["system.admin_self_ms"] = {median(s.admin_self_ms), "ms"};
  out["system.client_self_ms"] = {median(s.client_self_ms), "ms"};
  out["system.mutation_tail_ms"] = {tail(s.mutation.cpu), "ms"};
  out["cloud.puts_per_op"] = {static_cast<double>(s.admin_calls.puts) / ops, "count"};
  out["cloud.cas_per_op"] = {static_cast<double>(s.admin_calls.cas) / ops, "count"};
  out["cloud.gets_per_op"] = {static_cast<double>(s.admin_calls.gets) / ops, "count"};
  out["cloud.lists_per_op"] = {static_cast<double>(s.admin_calls.lists) / ops, "count"};
  out["cloud.erases_per_op"] = {static_cast<double>(s.admin_calls.erases) / ops, "count"};
  out["cloud.gets_per_fetch"] = {static_cast<double>(s.fetch_calls.gets) / fetches,
                                 "count"};
  out["cloud.ms_per_op"] = {s.admin_calls.busy_ms / ops, "ms"};
  out["cloud.ms_per_fetch"] = {s.fetch_calls.busy_ms / fetches, "ms"};
  out["enclave.ecalls_per_op"] = {static_cast<double>(s.ecalls) / ops, "count"};
  double plain = median(s.mutation_cpu_plain);
  out["trace.overhead_pct"] = {
      plain > 0 ? (median(s.mutation_cpu_traced) / plain - 1.0) * 100.0 : 0.0, "%"};
}

/// net.rpc_us on an in-process deployment: get round trips of the manifest
/// through a loopback server over the run's backing store.
double loopback_rpc_us(CloudStore& backing, const std::string& gid) {
  ibbe::net::NetServer server(backing);
  ibbe::net::RemoteStoreConfig cfg;
  cfg.port = server.port();
  cfg.server_identity = server.identity_key();
  ibbe::net::RemoteStore remote(cfg);
  auto path = ibbe::system::index_path(gid);
  (void)remote.get(path);  // handshake
  return mean_us(64, [&] { (void)remote.get(path); });
}

/// Every timing is the process's CPU time (see Timing): set-up, group
/// creation, one mutation, one warm fetch, one cold fetch, and membership
/// ops applied per CPU second of the measured phase (the kernel's chunks
/// left out). Every timing taken many times a run is bracketed by kernel
/// chunks and has the calling thread's share scaled to the reference
/// host's speed (see HostSpeed): mutations, warm fetches and the phase on
/// every workload, and set-up, creation and cold fetches on trace_wire.
/// The 10^6 workloads' set-ups, creations and cold fetches, two or three a
/// run, are taken as measured, since a factor from so few brackets moved
/// them more than the host did.
void end_to_end_metrics(const Samples& s, Metrics& out) {
  out["setup_s"] = {median(s.setup.cpu), "s"};
  out["create_cpu_s"] = {median(s.create.cpu), "s"};
  out["mutation_cpu_ms"] = {median(s.mutation.cpu), "ms"};
  out["fetch_cpu_ms"] = {median(s.fetch.cpu), "ms"};
  out["fetch_cold_cpu_s"] = {median(s.fetch_cold.cpu), "s"};
  Lap phase = s.phase;  // the kernel's chunks ran on the calling thread
  phase.cpu_ms -= s.phase_speed_ms;
  phase.thread_cpu_ms -= s.phase_speed_ms;
  double phase_cpu_ms = scaled_cpu_ms(phase, s.phase_factor);
  out["ops_per_cpu_s"] = {
      phase_cpu_ms > 0 ? static_cast<double>(s.phase_ops) * 1000.0 / phase_cpu_ms : 0.0,
      "1/s"};
  out["upload_bytes_per_op"] = {
      static_cast<double>(s.up_bytes) / std::max<double>(1.0, static_cast<double>(s.mutations)),
      "B"};
  out["download_bytes_per_fetch"] = {
      static_cast<double>(s.down_bytes) / std::max<double>(1.0, static_cast<double>(s.fetches)),
      "B"};
  out["group_bytes"] = {s.group_bytes, "B"};
  out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
}

// -------------------------------------------------------- 10^6 workloads

/// What the two 10^6 workloads share: group creation, the warm member pool
/// (one member per partition, partitions drawn by seed) and its warm-up.
struct Million {
  std::unique_ptr<Deployment> d;
  std::vector<Identity> members;
  std::vector<Member> pool;
  Bytes key;  // the members' key after warm-up
};

Million setup_once(const Options& opt, std::size_t pool_size, Samples& s,
                   Outcome& out) {
  Million m;
  const std::string gid = "g";
  Stopwatch setup;
  m.d = std::make_unique<Deployment>(opt, kBigPartition, false);
  m.members = make_ids("m", opt.seed, 0, kMillion);
  Stopwatch create;
  m.d->admin().create_group(gid, m.members);
  s.create.add(create.lap(), 1.0, 1000.0);
  // Algorithm 1 line 1 cuts the member list into consecutive partitions, so
  // distinct partition numbers give members of distinct partitions (checked
  // against the stored shards at the end of the run).
  ibbe::crypto::Drbg rng(opt.seed ^ 0x5eed);
  std::set<std::uint64_t> parts;
  while (parts.size() < pool_size) parts.insert(rng.uniform(kMillion / kBigPartition));
  for (auto p : parts) {
    auto idx = p * kBigPartition + rng.uniform(kBigPartition);
    m.pool.push_back(m.d->member(m.members[idx]));
  }
  for (auto& member : m.pool) {
    out.op("warm-up " + member.id, [&]() -> Verdict {
      auto r = member.client->fetch(gid);
      if (auto v = check_fetch(r, true, member.id)) return v;
      if (m.key.empty()) m.key = *r.key;
      return check_same_key(m.key, *r.key, "warm-up across partitions");
    });
  }
  s.setup.add(setup.lap(), 1.0, 1000.0);
  return m;
}

/// Set-up is taken twice, the first deployment torn down before the
/// second is built, so setup_s is a median of two and peak RSS is one
/// deployment's.
Million setup_million(const Options& opt, std::size_t pool_size, Samples& s,
                      Outcome& out) {
  { Million first = setup_once(opt, pool_size, s, out); }
  return setup_once(opt, pool_size, s, out);
}

/// End-of-run checks shared by both 10^6 workloads: the stored member count
/// and group_size are the benchmark's own count, and the pool members still
/// in the group sit in `members_left` distinct partitions.
void check_million_layout(Million& m, std::size_t expected_size,
                          std::size_t members_left, Outcome& out) {
  out.op("stored layout", [&]() -> Verdict {
    auto parts = stored_partitions(m.d->direct(), "g");
    std::size_t total = 0;
    std::map<Identity, ibbe::system::PartitionId> host;
    for (const auto& [pid, members] : parts) {
      total += members.size();
      for (const auto& member : m.pool) {
        if (std::find(members.begin(), members.end(), member.id) != members.end()) {
          host[member.id] = pid;
        }
      }
    }
    if (auto v = check_count(total, expected_size, "stored members")) return v;
    if (auto v = check_count(m.d->admin().group_size("g"), expected_size,
                             "group_size")) {
      return v;
    }
    std::set<ibbe::system::PartitionId> distinct;
    for (const auto& [id, pid] : host) distinct.insert(pid);
    if (auto v = check_count(host.size(), members_left, "pool members stored")) {
      return v;
    }
    return check_count(distinct.size(), members_left,
                       "distinct partitions of the pool");
  });
}

void run_revoke_1m(const Options& opt, Samples& s, Outcome& out, Metrics& layers) {
  // Pool: two warm fetchers in distinct partitions, plus a warm member that
  // is revoked at the end (its client must then see not_member).
  Million m = setup_million(opt, 3, s, out);
  auto& d = *m.d;
  Timed timed{d, s, out};
  const std::string gid = "g";
  std::set<Identity> skip;
  for (const auto& p : m.pool) skip.insert(p.id);
  ibbe::crypto::Drbg rng(opt.seed * 7919 + 3);
  std::size_t size = kMillion;
  Bytes last = m.key;

  Stopwatch phase;
  const double speed0 = s.speed.spent_ms();
  const std::size_t mark = s.speed.mark();
  for (std::size_t round = 0;
       round < kRevokeRounds || phase.wall_ms() < opt.seconds * 1000.0; ++round) {
    d.tracer.enabled = opt.trace && round % 2 == 0;
    Identity victim;
    do victim = m.members[rng.uniform(kMillion)]; while (!skip.insert(victim).second);
    --size;
    timed.mutation("remove_user", [&] { d.admin().remove_user(gid, victim); },
                   [&] { return check_count(d.admin().group_size(gid), size, "group_size"); });
    timed.fetch(m.pool[round % 2], gid, [&](const auto& r) -> Verdict {
      if (auto v = check_fetch(r, true, m.pool[round % 2].id)) return v;
      if (auto v = check_rotated(last, *r.key, "revocation")) return v;
      last = *r.key;
      return std::nullopt;
    });
    ++s.phase_ops;
  }
  s.phase = phase.lap();
  s.phase_speed_ms = s.speed.spent_ms() - speed0;
  s.phase_factor = s.speed.factor_since(mark);
  d.tracer.enabled = false;

  // The other fetcher derives the same key from its own partition; then the
  // warm third member is revoked and must see not_member; then fresh
  // clients of random members derive the rotated key.
  auto& other = m.pool[s.phase_ops % 2];  // the last round used the other one
  out.op("cross-partition fetch", [&]() -> Verdict {
    auto r = other.client->fetch(gid);
    if (auto v = check_fetch(r, true, other.id)) return v;
    return check_same_key(last, *r.key, "members of different partitions");
  });
  auto& gone = m.pool[2];
  out.op("revoke warm member", [&]() -> Verdict {
    d.admin().remove_user(gid, gone.id);
    --size;
    return check_fetch(gone.client->fetch(gid), false, gone.id + " (revoked)");
  });
  Bytes rotated;
  for (int i = 0; i < kColdFetches; ++i) {
    Identity cold_id;
    do cold_id = m.members[rng.uniform(kMillion)]; while (!skip.insert(cold_id).second);
    auto cold = d.member(cold_id);
    out.op("cold fetch", [&]() -> Verdict {
      Stopwatch watch;
      auto r = cold.client->fetch(gid);
      s.fetch_cold.add(watch.lap(), 1.0, 1000.0);
      if (auto v = check_fetch(r, true, cold.id)) return v;
      if (rotated.empty()) {
        rotated = *r.key;
        return check_rotated(last, rotated, "revocation of the warm member");
      }
      return check_same_key(rotated, *r.key, "fresh clients");
    });
  }
  check_million_layout(m, size, 2, out);
  s.group_bytes = group_bytes(d.direct(), gid);
  out.op("store accounting", [&] { return d.check_accounting(); });
  if (opt.trace) {
    probe_layers(d, gid, m.pool[0], 1, layers);
    layers["net.rpc_us"] = {loopback_rpc_us(d.backing(), gid), "us"};
    layers["net.requests_per_op"] = {0.0, "count"};
    layer_metrics(s, layers);
  }
}

void run_join_1m(const Options& opt, Samples& s, Outcome& out, Metrics& layers) {
  Million m = setup_million(opt, 2, s, out);
  auto& d = *m.d;
  Timed timed{d, s, out};
  const std::string gid = "g";
  std::size_t size = kMillion;
  std::size_t joined = 0;

  // The window's rounds always run in full, however short --seconds is or
  // however slow the host, so every run's add figures cover the same adds.
  Stopwatch phase;
  const double speed0 = s.speed.spent_ms();
  const std::size_t mark = s.speed.mark();
  auto end_window = [&] {
    s.phase = phase.lap();
    s.phase_speed_ms = s.speed.spent_ms() - speed0;
    s.phase_factor = s.speed.factor_since(mark);
  };
  for (std::size_t round = 0;
       round < kWindowRounds || phase.wall_ms() < opt.seconds * 1000.0; ++round) {
    d.tracer.enabled = opt.trace && round % 2 == 0;
    s.in_window = round < kWindowRounds;
    if (round == kWindowRounds) end_window();
    for (auto& id : make_ids("j", opt.seed, joined, kAddsPerRound)) {
      ++joined;
      ++size;
      timed.mutation("add_user", [&] { d.admin().add_user(gid, id); });
      if (s.in_window) ++s.phase_ops;
    }
    timed.fetch(m.pool[round % 2], gid, [&](const auto& r) -> Verdict {
      if (auto v = check_fetch(r, true, m.pool[round % 2].id)) return v;
      return check_same_key(m.key, *r.key, "key after adds");
    });
  }
  if (s.phase.wall_ms == 0.0) end_window();  // ended at the window
  s.in_window = true;
  d.tracer.enabled = false;

  out.op("group_size", [&] {
    return check_count(d.admin().group_size(gid), size, "group_size");
  });
  // Fresh clients of the last joiners derive the members' key.
  for (const auto& id : make_ids("j", opt.seed, joined - kColdFetches, kColdFetches)) {
    auto cold = d.member(id);
    out.op("cold fetch (joiner)", [&]() -> Verdict {
      Stopwatch watch;
      auto r = cold.client->fetch(gid);
      s.fetch_cold.add(watch.lap(), 1.0, 1000.0);
      if (auto v = check_fetch(r, true, cold.id)) return v;
      return check_same_key(m.key, *r.key, "joiner vs members");
    });
  }
  check_million_layout(m, size, 2, out);
  s.group_bytes = group_bytes(d.direct(), gid);
  out.op("store accounting", [&] { return d.check_accounting(); });
  if (opt.trace) {
    probe_layers(d, gid, m.pool[0], 1, layers);
    layers["net.rpc_us"] = {loopback_rpc_us(d.backing(), gid), "us"};
    layers["net.requests_per_op"] = {0.0, "count"};
    layer_metrics(s, layers);
  }
}

// -------------------------------------------------------------- trace_wire

void run_trace_wire(const Options& opt, Samples& s, Outcome& out, Metrics& layers) {
  // The replayed trace: two long-lived members present from the start (the
  // warm clients), then the first kTracePrefix ops of the Linux-kernel
  // trace. Its shape (the order of joins and leaves) is the one the paper
  // replays, so it is fixed; --seed renames every identity, which changes
  // every IBBE hash, key and ciphertext but not the shape, so runs of
  // different seeds do the same amount of work.
  auto full = ibbe::trace::linux_kernel_trace(kTraceTotal, kTracePeak, kTraceShapeSeed);
  const std::string tag = make_ids("", opt.seed, 0, 1).front().substr(7);
  ibbe::trace::MembershipTrace trace;
  trace.label = full.label;
  trace.initial_members = {"core-a" + tag, "core-b" + tag};
  for (std::size_t i = 0; i < kTracePrefix; ++i) {
    trace.ops.push_back({full.ops[i].kind, full.ops[i].user + tag});
  }
  const auto final_members = trace.final_members();

  // Setup is cheap at this scale, so it is taken kTraceSetups times (a
  // whole deployment each) and the last one is kept; each one's group
  // creation is also a create_cpu_s sample.
  std::unique_ptr<Deployment> d;
  std::vector<Member> warm;
  CloudStore* probe_wire = nullptr;
  for (int rep = 0; rep < kTraceSetups; ++rep) {
    warm.clear();
    d.reset();
    Lap create;
    auto [setup, factor] = bracketed(s.speed, kChunksPerFetch, [&] {
      d = std::make_unique<Deployment>(opt, kTracePartition, true);
      Stopwatch create_watch;
      d->admin().create_group("setup", trace.initial_members);
      create = create_watch.lap();
      for (const auto& id : trace.initial_members) warm.push_back(d->member(id));
      probe_wire = &d->connection();
      for (auto& w : warm) {
        out.op("warm-up " + w.id, [&] {
          return check_fetch(w.client->fetch("setup"), true, w.id);
        });
      }
    });
    s.setup.add(setup, factor, 1000.0);
    s.create.add(create, factor, 1000.0);
  }
  Timed timed{*d, s, out};
  Stopwatch phase;
  const double speed0 = s.speed.spent_ms();
  const std::size_t mark = s.speed.mark();
  std::string gid;
  std::set<Identity> live;
  for (std::size_t round = 0; phase.wall_ms() < opt.seconds * 1000.0; ++round) {
    d->tracer.enabled = opt.trace && round % 2 == 0;
    gid = "t";
    gid += std::to_string(round);
    live = {trace.initial_members.begin(), trace.initial_members.end()};
    out.op("create_group", [&] {
      d->admin().create_group(gid, trace.initial_members);
      return Verdict{};
    });
    // Key of the current epoch as first observed, and of the one before.
    Bytes epoch_key, prev_key;
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
      d->tracer.enabled = opt.trace && (round + i) % 2 == 0;
      const auto& op = trace.ops[i];
      bool add = op.kind == ibbe::trace::OpKind::add;
      timed.mutation(add ? "add_user" : "remove_user", [&] {
        if (add) {
          d->admin().add_user(gid, op.user);
        } else {
          d->admin().remove_user(gid, op.user);
        }
      }, [&] {
        if (add) live.insert(op.user); else live.erase(op.user);
        return check_count(d->admin().group_size(gid), live.size(), "group_size");
      });
      ++s.phase_ops;
      if (!add) {
        if (!epoch_key.empty()) prev_key = std::move(epoch_key);
        epoch_key.clear();
        auto probe = d->member(op.user, probe_wire);
        out.op("probe " + op.user, [&] {
          return check_fetch(probe.client->fetch(gid), false, op.user + " (revoked)");
        });
      }
      if ((i + 1) % kTraceFetchEvery == 0) {
        for (auto& w : warm) {
          timed.fetch(w, gid, [&](const auto& r) -> Verdict {
            if (auto v = check_fetch(r, true, w.id)) return v;
            if (epoch_key.empty()) {
              if (!prev_key.empty()) {
                if (auto v = check_rotated(prev_key, *r.key, "revocation")) return v;
              }
              epoch_key = *r.key;
              return std::nullopt;
            }
            return check_same_key(epoch_key, *r.key, "key within an epoch");
          });
        }
      }
    }
    // Fresh clients of the members who joined during the trace (12 are
    // left at its end) derive the key the warm client holds; the shards
    // read past the wire hold exactly the trace's final member set.
    Bytes cold_key;
    std::vector<Identity> colds;
    for (const auto& id : final_members) {
      if (id.rfind("dev", 0) != 0) continue;
      colds.push_back(id);
      auto cold = d->member(id, probe_wire);
      out.op("cold fetch", [&]() -> Verdict {
        ClientApi::FetchResult r;
        auto [lap, factor] = bracketed(s.speed, kChunksPerFetch,
                                       [&] { r = cold.client->fetch(gid); });
        s.fetch_cold.add(lap, factor, 1000.0);
        if (auto v = check_fetch(r, true, cold.id)) return v;
        if (cold_key.empty()) cold_key = *r.key;
        return check_same_key(cold_key, *r.key, "fresh clients");
      });
    }
    out.op("warm vs cold key", [&]() -> Verdict {
      auto r = warm[0].client->fetch(gid);
      if (auto v = check_fetch(r, true, warm[0].id)) return v;
      return check_same_key(cold_key, *r.key, "fresh vs warm client");
    });
    out.op("stored member set", [&]() -> Verdict {
      std::vector<Identity> stored;
      std::vector<ibbe::system::PartitionId> cold_hosts;
      for (auto& [pid, members] : stored_partitions(d->direct(), gid)) {
        for (const auto& id : colds) {
          if (std::find(members.begin(), members.end(), id) != members.end()) {
            cold_hosts.push_back(pid);
          }
        }
        stored.insert(stored.end(), members.begin(), members.end());
      }
      if (auto v = check_member_set(stored, final_members, "shards vs final_members()")) {
        return v;
      }
      // The fresh clients agreed on one key across partitions.
      return check_partitions_spanned(cold_hosts, 2, "fresh clients' partitions");
    });
  }
  s.phase = phase.lap();
  s.phase_speed_ms = s.speed.spent_ms() - speed0;
  s.phase_factor = s.speed.factor_since(mark);
  d->tracer.enabled = false;

  s.group_bytes = group_bytes(d->direct(), gid);
  out.op("store accounting", [&] { return d->check_accounting(); });
  auto wire = d->wire_counts();
  if (opt.trace) {
    probe_layers(*d, gid, warm[0], 16, layers);
    layers["net.rpc_us"] = {wire.busy_ms * 1000.0 / static_cast<double>(wire.calls()), "us"};
    layers["net.requests_per_op"] = {
        static_cast<double>(s.admin_calls.calls()) /
            static_cast<double>(std::max<std::uint64_t>(1, s.mutations)),
        "count"};
    layer_metrics(s, layers);
  }
}

// ------------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload revoke_1m|join_1m|trace_wire "
               "--seed N --seconds S --trace 0|1 [--rev TEXT]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--rev") opt.rev = v;
    else return usage();
  }
  std::map<std::string, void (*)(const Options&, Samples&, Outcome&, Metrics&)>
      workloads = {{"revoke_1m", run_revoke_1m},
                   {"join_1m", run_join_1m},
                   {"trace_wire", run_trace_wire}};
  auto it = workloads.find(opt.workload);
  if (it == workloads.end() || !(opt.seconds > 0)) return usage();

  std::printf(
      "# fingerprint {\"cpu\": \"%s\", \"nproc\": %u, \"mont_backend\": \"%s\", "
      "\"pool_threads\": %zu, \"rev\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %" PRIu64 ", \"seconds\": %s, \"trace\": %d}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(ibbe::bigint::backend::name()).c_str(),
      ibbe::util::ThreadPool::global().threads(), json_escape(opt.rev).c_str(),
      opt.workload.c_str(), opt.seed, num(opt.seconds).c_str(), opt.trace ? 1 : 0);
  std::fflush(stdout);

  Stopwatch run;
  const double steal0 = steal_s();
  Samples samples;
  Outcome outcome;
  Metrics layers, e2e;
  try {
    it->second(opt, samples, outcome, layers);
  } catch (const std::exception& e) {
    ++outcome.attempted;
    ++outcome.failed;
    outcome.errors.push_back(std::string("aborted: ") + e.what());
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
  }
  end_to_end_metrics(samples, e2e);

  // Readable table: both kinds when traced (the traced run's end-to-end
  // figures carry the tracing overhead), then the JSON result line.
  auto table = [](const char* kind, const Metrics& m) {
    for (const auto& [name, metric] : m) {
      std::printf("# %-9s %-28s %14.6g %s\n", kind, name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  };
  table("e2e", e2e);
  if (opt.trace) table("layer", layers);
  // Wall-time medians of the same samples, and how much of the run's wall
  // time the host gave this machine's CPUs to others (steal).
  auto wall = [](const char* name, const Timing& t, const char* unit) {
    std::printf("# wall      %-28s %14.6g %s\n", name, median(t.wall), unit);
  };
  wall("setup", samples.setup, "s");
  wall("create", samples.create, "s");
  wall("mutation", samples.mutation, "ms");
  wall("fetch", samples.fetch, "ms");
  wall("fetch_cold", samples.fetch_cold, "s");
  std::printf("# host      run_wall_s=%.3f run_cpu_s=%.3f steal_cpu_s=%.2f "
              "speed_factor=%.4f chunk_ms=%.4f chunks=%zu (%" PRIx64 ")\n",
              run.wall_ms() / 1000.0, process_cpu_ms() / 1000.0,
              steal_s() - steal0, samples.speed.factor(),
              samples.speed.median_chunk_ms(), samples.speed.chunks(),
              samples.speed.sink());
  auto raw = [](const char* name, const Timing& t, const char* unit) {
    std::printf("# raw cpu   %-28s %14.6g %s (calling thread %.0f%%)\n", name,
                median(t.raw_cpu), unit, median(t.thread_share) * 100.0);
  };
  raw("setup", samples.setup, "s");
  raw("create", samples.create, "s");
  raw("mutation", samples.mutation, "ms");
  raw("fetch", samples.fetch, "ms");
  raw("fetch_cold", samples.fetch_cold, "s");
  std::printf("# samples mutations=%" PRIu64 " fetches=%" PRIu64
              " fetch_samples=%zu phase_wall_s=%.3f phase_cpu_s=%.3f\n",
              samples.mutations, samples.fetches, samples.fetch.cpu.size(),
              samples.phase.wall_ms / 1000.0, samples.phase.cpu_ms / 1000.0);
  auto list = [](const char* name, const std::vector<double>& v) {
    std::printf("# samples %s", name);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  list("fetch_cpu_ms", samples.fetch.cpu);
  list("setup_cpu_s", samples.setup.cpu);
  list("create_cpu_s", samples.create.cpu);
  if (samples.mutation.cpu.size() <= 64) list("mutation_cpu_ms", samples.mutation.cpu);
  for (const auto& e : outcome.errors) std::printf("# error %s\n", e.c_str());

  const Metrics& shown = opt.trace ? layers : e2e;
  std::ostringstream json;
  json << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : shown) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << num(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return outcome.failed == 0 ? 0 : 1;
}
