// The benchmark's own tests: every outcome check is fed a correct outcome
// (it must pass) and a deliberately wrong one (it must fail), so no check
// in perfbench.cpp can pass vacuously. Outcomes come from a small real
// stack (enclave, admin, in-process store, clients) where possible.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "system/admin.h"
#include "trace/trace.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}
void passes(const Verdict& v, const std::string& what) {
  expect(!v, what + (v ? " (" + *v + ")" : ""));
}
void fails(const Verdict& v, const std::string& what) {
  expect(static_cast<bool>(v), what + " is rejected");
}

void test_statistics() {
  expect(median({3, 1, 2}) == 2.0, "median of three");
  expect(quantile({1, 2, 3, 4, 5}, 0.25) == 2.0, "first quartile");
  std::vector<double> many(1000);
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = static_cast<double>(i);
  expect(tail(many) > 980.0, "tail of 1000 samples is p99");
  expect(tail({1, 2, 3}) == 2.0, "tail of few samples is the median");
}

void test_host_speed() {
  HostSpeed speed;
  expect(speed.factor() == 1.0, "no kernel chunks: factor 1");
  speed.sample(2);
  std::size_t mark = speed.mark();
  speed.sample(3);
  expect(speed.chunks() == 5 && speed.spent_ms() > 0.0, "chunks are timed");
  expect(speed.factor_since(mark) > 0.0 && speed.factor_since(speed.mark()) == 1.0,
         "factor over recent chunks");
  Lap lap{10.0, 8.0, 6.0};  // 6 of 8 CPU ms on the calling thread
  expect(scaled_cpu_ms(lap, 0.5) == 5.0, "only the calling thread's share is scaled");
}

void test_tracer() {
  Tracer t;
  t.enabled = true;
  int root = t.begin_op("op");
  double t0 = t.now_ms();
  t.child("store.get", t0, t0 + 2.0);
  t.child("store.put", t0 + 2.0, t0 + 3.0);
  t.end_op(root);
  expect(t.spans().size() == 3 && t.spans()[1].parent == root,
         "child spans point at their operation");
  expect(t.child_ms(root) == 3.0, "children cover their own durations");
  Tracer off;
  expect(off.begin_op("op") == -1 && off.spans().empty(), "disabled tracer records nothing");
}

void test_store_accounting() {
  ibbe::cloud::CloudStore backing;
  Tracer tracer;
  RecordingStore store(backing, tracer);
  auto before = backing.stats();
  store.put("g/a", ibbe::util::Bytes(100, 1));
  (void)store.put_cas("g/b", ibbe::util::Bytes(50, 2), 0);
  (void)store.put_cas("g/b", ibbe::util::Bytes(70, 2), 0);  // conflict: no bytes
  (void)store.get("g/a");
  (void)store.get_versioned("g/b");
  (void)store.get("g/missing");
  (void)store.list("g/");
  store.erase("g/a");
  auto after = backing.stats();
  passes(check_store_accounting(store.counts(), before, after),
         "decorator totals equal CloudStats");
  StoreCounts skewed = store.counts();
  skewed.bytes_down += 1;
  fails(check_store_accounting(skewed, before, after), "a byte count off by one");
  skewed = store.counts();
  skewed.lists -= 1;
  fails(check_store_accounting(skewed, before, after), "a missing list call");
}

void test_member_sets() {
  ibbe::trace::MembershipTrace trace;
  trace.initial_members = {"core-a", "core-b"};
  auto full = ibbe::trace::linux_kernel_trace(200, 16, 3);
  trace.ops.assign(full.ops.begin(), full.ops.begin() + 60);
  auto want = trace.final_members();
  auto shuffled = want;
  std::reverse(shuffled.begin(), shuffled.end());
  passes(check_member_set(shuffled, want, "final set"), "same set in another order");
  auto missing = want;
  missing.pop_back();
  fails(check_member_set(missing, want, "final set"), "a final set missing a member");
  auto extra = want;
  extra.push_back("dev-never-joined");
  fails(check_member_set(extra, want, "final set"), "a final set with an outsider");
  auto dup = want;
  dup.push_back(want.front());
  fails(check_member_set(dup, want, "final set"), "a final set with a duplicate");
  passes(check_count(3, 3, "n"), "equal counts");
  fails(check_count(4, 3, "group_size"), "a group_size off by one");
  passes(check_partitions_spanned({4, 0, 4}, 2, "clients"), "clients in two partitions");
  fails(check_partitions_spanned({4, 4, 4}, 2, "clients"),
        "clients whose key check never crossed partitions");
}

/// Verdicts and keys from a real deployment at |p| = 2: two members in
/// different partitions, a revocation, an add.
void test_real_outcomes() {
  ibbe::sgx::EnclavePlatform platform("selftest");
  ibbe::enclave::IbbeEnclave enclave(platform, 2, 9);
  ibbe::cloud::CloudStore store;
  ibbe::crypto::Drbg rng(4);
  ibbe::system::AdminConfig cfg;
  cfg.partition_size = 2;
  ibbe::system::AdminApi admin(enclave, store,
                               ibbe::pki::EcdsaKeyPair::generate(rng), cfg, 4);
  admin.create_group("g", std::vector<ibbe::core::Identity>{"a", "b", "c", "d"});
  auto client = [&](const std::string& id) {
    return ibbe::system::ClientApi(store, enclave.public_key(),
                                   enclave.ecall_extract_user_key(id),
                                   admin.verification_point());
  };
  auto a = client("a"), c = client("c"), d = client("d");
  auto ra = a.fetch("g"), rc = c.fetch("g"), rd = d.fetch("g");
  passes(check_fetch(ra, true, "a"), "a member's ok fetch");
  passes(check_same_key(*ra.key, *rc.key, "partitions"),
         "members of different partitions agree");

  admin.remove_user("g", "d");
  auto rd2 = d.fetch("g");
  passes(check_fetch(rd2, false, "d"), "a revoked member's not_member");
  fails(check_fetch(rd2, true, "d"), "a member reported not_member");
  fails(check_fetch(rd, false, "d"), "a revoked member reported ok");
  ibbe::system::ClientApi::FetchResult keyless{Status::ok, std::nullopt};
  fails(check_fetch(keyless, true, "a"), "ok without a key");
  auto ra2 = a.fetch("g");
  passes(check_rotated(*ra.key, *ra2.key, "revocation"), "revocation rotates the key");
  fails(check_same_key(*ra.key, *ra2.key, "epochs"),
        "mismatched keys (stale epoch vs current)");

  admin.add_user("g", "e");
  auto ra3 = a.fetch("g");
  passes(check_same_key(*ra2.key, *ra3.key, "add"), "an add keeps the key");
  fails(check_rotated(*ra2.key, *ra3.key, "add"), "an unrotated key after an add");
  auto e = client("e");
  auto re = e.fetch("g");
  passes(check_same_key(*ra3.key, *re.key, "joiner"), "the joiner derives the key");
  fails(check_same_key(*ra.key, *re.key, "joiner"), "a joiner with a pre-revocation key");
  passes(check_count(admin.group_size("g"), 4, "group_size"), "group_size after churn");
  fails(check_count(admin.group_size("g"), 5, "group_size"), "a wrong membership count");
}

}  // namespace

int main() {
  test_statistics();
  test_host_speed();
  test_tracer();
  test_store_accounting();
  test_member_sets();
  test_real_outcomes();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
