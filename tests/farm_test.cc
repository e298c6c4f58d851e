// Tests for the spearfarm subsystem (src/farm): the length-prefixed JSON
// wire protocol (framing round trips, malformed/oversized frames, clean
// EOF), the content-addressed result cache (key sensitivity, store/load
// round trips, corruption = miss), and the daemon itself — driven over
// real Unix-domain sockets with a deterministic in-memory executor so
// fairness, coalescing, admission control, cancel, disconnect and
// drain/restart are testable without forking a single simulator.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.h"
#include "farm/cache.h"
#include "farm/client.h"
#include "farm/daemon.h"
#include "farm/proto.h"
#include "runner/manifest.h"
#include "runner/runner.h"

namespace spear::farm {
namespace {

using telemetry::JsonValue;

std::string TempDir(const std::string& tag) {
  static int counter = 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("spear_farm_test." + std::to_string(::getpid()) + "." + tag + "." +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(path);
  return path;
}

// --- wire protocol ---

TEST(ProtoTest, FrameRoundTripsOverSocketPair) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  JsonValue frame = JsonValue::Object();
  frame.Set("op", JsonValue("submit"));
  frame.Set("job", JsonValue(7));
  std::string error;
  ASSERT_TRUE(WriteFrame(fds[0], frame, &error)) << error;

  JsonValue got;
  ASSERT_TRUE(ReadFrame(fds[1], &got, &error)) << error;
  EXPECT_EQ(frame.Dump(), got.Dump());

  // Clean EOF at a frame boundary: false with *error left empty.
  ::close(fds[0]);
  error = "sentinel";
  EXPECT_FALSE(ReadFrame(fds[1], &got, &error));
  EXPECT_TRUE(error.empty());
  ::close(fds[1]);
}

TEST(ProtoTest, ReadFrameRejectsOversizedLength) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  // 0xFFFFFFFF bytes claimed — far beyond kMaxFrameBytes.
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(4, ::send(fds[0], huge, 4, 0));
  JsonValue got;
  std::string error;
  EXPECT_FALSE(ReadFrame(fds[1], &got, &error));
  EXPECT_NE(error.find("oversized"), std::string::npos) << error;
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtoTest, FrameBufferReassemblesSplitFrames) {
  JsonValue frame = JsonValue::Object();
  frame.Set("op", JsonValue("ping"));
  const std::string payload = frame.Dump();
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::string wire;
  wire.push_back(static_cast<char>(len & 0xff));
  wire.push_back(static_cast<char>((len >> 8) & 0xff));
  wire.push_back(static_cast<char>((len >> 16) & 0xff));
  wire.push_back(static_cast<char>((len >> 24) & 0xff));
  wire += payload;

  FrameBuffer buf;
  JsonValue got;
  std::string error;
  // Byte-at-a-time delivery: no frame until the last byte lands.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    buf.Append(&wire[i], 1);
    EXPECT_FALSE(buf.Next(&got, &error));
    EXPECT_TRUE(error.empty()) << error;
  }
  buf.Append(&wire[wire.size() - 1], 1);
  ASSERT_TRUE(buf.Next(&got, &error)) << error;
  EXPECT_EQ(frame.Dump(), got.Dump());

  // Two frames in one append come out one at a time.
  buf.Append(wire.data(), wire.size());
  buf.Append(wire.data(), wire.size());
  EXPECT_TRUE(buf.Next(&got, &error));
  EXPECT_TRUE(buf.Next(&got, &error));
  EXPECT_FALSE(buf.Next(&got, &error));
  EXPECT_TRUE(error.empty());
}

TEST(ProtoTest, FrameBufferRejectsMalformedAndOversized) {
  // Valid length prefix, garbage payload.
  const std::string garbage = "not json!";
  const std::uint32_t len = static_cast<std::uint32_t>(garbage.size());
  FrameBuffer buf;
  const char prefix[4] = {static_cast<char>(len), 0, 0, 0};
  buf.Append(prefix, 4);
  buf.Append(garbage.data(), garbage.size());
  JsonValue got;
  std::string error;
  EXPECT_FALSE(buf.Next(&got, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;

  // Oversized length prefix is rejected before any payload arrives.
  FrameBuffer buf2;
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
  buf2.Append(reinterpret_cast<const char*>(huge), 4);
  error.clear();
  EXPECT_FALSE(buf2.Next(&got, &error));
  EXPECT_NE(error.find("oversized"), std::string::npos) << error;
}

TEST(ProtoTest, WriteFrameRefusesOverlargePayload) {
  JsonValue frame = JsonValue::Object();
  frame.Set("blob", JsonValue(std::string(kMaxFrameBytes, 'x')));
  std::string error;
  EXPECT_FALSE(WriteFrame(1, frame, &error));
  EXPECT_NE(error.find("too large"), std::string::npos) << error;
}

// --- result cache ---

runner::Manifest CacheManifest() {
  runner::Manifest m;
  m.name = "farmtest";
  m.defaults.sim_instrs = 2'000;
  m.defaults.max_cycles = 1'000'000;
  m.defaults.ref_seed = 42;
  m.defaults.profile_seed = 7;
  m.workloads = {"matrix"};
  runner::ConfigSpec base;
  base.label = "base";
  m.configs.push_back(base);
  runner::ConfigSpec tuned;
  tuned.label = "tuned";
  tuned.ifq = 64;
  m.configs.push_back(tuned);
  return m;
}

TEST(ResultCacheTest, KeyCoversEveryDeterministicInput) {
  const runner::Manifest m = CacheManifest();
  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  ASSERT_EQ(jobs.size(), 2u);

  const ResultCacheKey a = MakeResultKey(m, jobs[0], 0x1234, false);
  EXPECT_EQ(a.key, MakeResultKey(m, jobs[0], 0x1234, false).key);

  // Config (the tuned ifq shows up through the canonical config JSON).
  EXPECT_NE(a.key, MakeResultKey(m, jobs[1], 0x1234, false).key);
  // Binary fingerprint.
  EXPECT_NE(a.key, MakeResultKey(m, jobs[0], 0x9999, false).key);
  // Cosim flag.
  EXPECT_NE(a.key, MakeResultKey(m, jobs[0], 0x1234, true).key);
  // Deterministic defaults.
  runner::Manifest m2 = m;
  m2.defaults.sim_instrs = 4'000;
  EXPECT_NE(a.key, MakeResultKey(m2, jobs[0], 0x1234, false).key);
  m2 = m;
  m2.defaults.ref_seed = 43;
  EXPECT_NE(a.key, MakeResultKey(m2, jobs[0], 0x1234, false).key);
  // The failure policy is NOT part of the key: it shapes the run, never
  // the row's bytes.
  m2 = m;
  m2.defaults.timeout_ms = 123'456;
  m2.defaults.max_retries = 9;
  EXPECT_EQ(a.key, MakeResultKey(m2, jobs[0], 0x1234, false).key);
}

TEST(ResultCacheTest, StoreLoadRoundTripAndProbe) {
  const std::string dir = TempDir("cache");
  const runner::Manifest m = CacheManifest();
  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  const ResultCacheKey key = MakeResultKey(m, jobs[0], 0xabcd, false);

  JsonValue row = JsonValue::Object();
  row.Set("id", JsonValue("matrix/base"));
  row.Set("stats", JsonValue::Object());

  std::uint64_t bytes = 0;
  EXPECT_FALSE(ProbeResult(dir, key, &bytes));
  std::string error;
  ASSERT_TRUE(StoreResult(dir, key, row, "hit", &error)) << error;

  JsonValue loaded;
  std::string ckpt;
  ASSERT_TRUE(LoadResult(dir, key, &loaded, &ckpt, &bytes));
  EXPECT_EQ(row.Dump(), loaded.Dump());
  EXPECT_EQ(ckpt, "hit");
  EXPECT_GT(bytes, 0u);
  EXPECT_TRUE(ProbeResult(dir, key, &bytes));

  // A different key misses even though the directory is warm.
  const ResultCacheKey other = MakeResultKey(m, jobs[1], 0xabcd, false);
  EXPECT_FALSE(ProbeResult(dir, other, &bytes));
}

TEST(ResultCacheTest, CorruptionAndKeyMismatchReadAsMiss) {
  const std::string dir = TempDir("corrupt");
  const runner::Manifest m = CacheManifest();
  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  const ResultCacheKey key = MakeResultKey(m, jobs[0], 0xabcd, false);
  JsonValue row = JsonValue::Object();
  row.Set("id", JsonValue("matrix/base"));
  ASSERT_TRUE(StoreResult(dir, key, row, "off", nullptr));

  // Truncate the entry: a torn file must read as a miss, never an error.
  {
    std::ofstream out(ResultCachePath(dir, key),
                      std::ios::binary | std::ios::trunc);
    out << "{\"result_cache_ver";
  }
  JsonValue loaded;
  EXPECT_FALSE(LoadResult(dir, key, &loaded));

  // A file whose stored key string disagrees (hash collision) is a miss.
  ASSERT_TRUE(StoreResult(dir, key, row, "off", nullptr));
  {
    std::ifstream in(ResultCachePath(dir, key), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    const std::size_t pos = text.find("fp=");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 3] = text[pos + 3] == '0' ? '1' : '0';
    std::ofstream out(ResultCachePath(dir, key),
                      std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_FALSE(LoadResult(dir, key, &loaded));
}

TEST(ResultCacheTest, BinaryFingerprintIsDeterministicPerWorkload) {
  const runner::Manifest m = CacheManifest();
  const EvalOptions opts =
      runner::MakeEvalOptions(m.defaults, m.configs[0]);
  const PreparedWorkload a = PrepareWorkload("matrix", opts);
  const PreparedWorkload b = PrepareWorkload("matrix", opts);
  EXPECT_EQ(BinaryFingerprint(a), BinaryFingerprint(b));
  const PreparedWorkload c = PrepareWorkload("mcf", opts);
  EXPECT_NE(BinaryFingerprint(a), BinaryFingerprint(c));
}

// --- daemon, driven with a deterministic executor over real sockets ---

class FakeExecutor : public JobExecutor {
 public:
  explicit FakeExecutor(std::string tmp_dir) : tmp_dir_(std::move(tmp_dir)) {}

  std::uint64_t Start(const Launch& launch) override {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t ticket = next_++;
    launches_.push_back({ticket, launch});
    running_.insert(ticket);
    return ticket;
  }
  void Cancel(std::uint64_t ticket) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_.erase(ticket) == 0) return;
    Completion c;
    c.ticket = ticket;
    c.result.ok = false;
    c.result.canceled = true;
    c.result.attempts = 1;
    done_.push_back(std::move(c));
  }
  std::vector<Completion> Pump() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Completion> out = std::move(done_);
    done_.clear();
    return out;
  }
  std::size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return running_.size();
  }

  // Test side: block until the Nth launch exists, then return it.
  std::pair<std::uint64_t, Launch> WaitForLaunch(std::size_t index) {
    for (int spin = 0; spin < 2000; ++spin) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (launches_.size() > index) return launches_[index];
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "launch " << index << " never happened";
    return {};
  }
  std::size_t launch_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return launches_.size();
  }

  void CompleteOk(std::uint64_t ticket, const JsonValue& row,
                  const std::string& ckpt = "off") {
    const std::string path =
        tmp_dir_ + "/fake" + std::to_string(ticket) + ".json";
    JsonValue doc = JsonValue::Object();
    doc.Set("job", row);
    JsonValue run = JsonValue::Object();
    run.Set("ckpt", JsonValue(ckpt));
    doc.Set("run", std::move(run));
    {
      std::ofstream out(path, std::ios::binary);
      out << doc.Dump(2) << "\n";
    }
    std::lock_guard<std::mutex> lock(mu_);
    running_.erase(ticket);
    Completion c;
    c.ticket = ticket;
    c.result.ok = true;
    c.result.exit_code = 0;
    c.result.attempts = 1;
    c.job_out_path = path;
    done_.push_back(std::move(c));
  }
  void CompleteFail(std::uint64_t ticket, int exit_code) {
    std::lock_guard<std::mutex> lock(mu_);
    running_.erase(ticket);
    Completion c;
    c.ticket = ticket;
    c.result.ok = false;
    c.result.exit_code = exit_code;
    c.result.attempts = 1;
    done_.push_back(std::move(c));
  }

 private:
  std::string tmp_dir_;
  mutable std::mutex mu_;
  std::uint64_t next_ = 1;
  std::vector<std::pair<std::uint64_t, Launch>> launches_;
  std::set<std::uint64_t> running_;
  std::vector<Completion> done_;
};

// A daemon on its own thread plus the fake executor behind it.
class DaemonFixture {
 public:
  explicit DaemonFixture(int workers = 1, std::size_t max_queued = 256)
      : dir_(TempDir("daemon")), fake_(dir_ + "/fakeout") {
    std::filesystem::create_directories(dir_ + "/fakeout");
    opts_.socket_path = dir_ + "/farm.sock";
    opts_.state_dir = dir_ + "/state";
    opts_.workers = workers;
    opts_.max_queued = max_queued;
  }
  ~DaemonFixture() { Stop(); }

  bool Start() {
    daemon_ = std::make_unique<FarmDaemon>(opts_, &fake_);
    std::string error;
    if (!daemon_->Init(&error)) {
      ADD_FAILURE() << "daemon init: " << error;
      return false;
    }
    thread_ = std::thread([this] { exit_code_ = daemon_->Serve(); });
    return true;
  }
  // Drains through a dedicated control connection and joins.
  void Stop() {
    if (!thread_.joinable()) return;
    FarmClient control;
    std::string error;
    if (control.Connect(opts_.socket_path, &error)) {
      control.Drain(nullptr, &error);
    }
    thread_.join();
  }
  // Joins without draining — for tests that drained explicitly.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  FakeExecutor& fake() { return fake_; }
  const FarmOptions& opts() const { return opts_; }
  const FarmDaemon& daemon() const { return *daemon_; }
  int exit_code() const { return exit_code_; }

 private:
  std::string dir_;
  FakeExecutor fake_;
  FarmOptions opts_;
  std::unique_ptr<FarmDaemon> daemon_;
  std::thread thread_;
  int exit_code_ = -1;
};

// Reads events until one of `kind` arrives (skipping others).
JsonValue WaitEvent(FarmClient& client, const std::string& kind) {
  for (int i = 0; i < 100; ++i) {
    JsonValue ev;
    std::string error;
    if (!client.Recv(&ev, &error)) {
      ADD_FAILURE() << "connection lost waiting for " << kind << ": "
                    << error;
      return JsonValue();
    }
    const JsonValue* k = ev.Find("event");
    if (k != nullptr && k->AsString() == kind) return ev;
  }
  ADD_FAILURE() << "no " << kind << " event in 100 frames";
  return JsonValue();
}

void Submit(FarmClient& client, const JsonValue& manifest_json,
            std::int64_t job) {
  JsonValue f = JsonValue::Object();
  f.Set("op", JsonValue("submit"));
  f.Set("manifest", manifest_json);
  f.Set("job", JsonValue(job));
  std::string error;
  ASSERT_TRUE(client.Send(f, &error)) << error;
}

runner::Manifest DaemonManifest(int extra_configs = 0) {
  runner::Manifest m = CacheManifest();
  for (int i = 0; i < extra_configs; ++i) {
    runner::ConfigSpec c;
    c.label = "sweep" + std::to_string(i);
    c.ifq = 64 + 64 * i;
    m.configs.push_back(c);
  }
  return m;
}

JsonValue FakeRow(const runner::Manifest& m, std::size_t job_index) {
  const std::vector<runner::JobSpec> jobs = runner::ExpandJobs(m);
  JsonValue row = JsonValue::Object();
  row.Set("id", JsonValue(runner::JobId(m, jobs[job_index])));
  row.Set("workload", JsonValue(jobs[job_index].workload));
  row.Set("config", JsonValue(m.configs[jobs[job_index].config].label));
  JsonValue stats = JsonValue::Object();
  stats.Set("cycles", JsonValue(1000 + static_cast<std::int64_t>(job_index)));
  row.Set("stats", std::move(stats));
  return row;
}

TEST(FarmDaemonTest, SubmitStreamsQueuedStartedResult) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  ASSERT_TRUE(client.Ping(&error)) << error;

  Submit(client, mj, 0);
  const JsonValue queued = WaitEvent(client, "queued");
  EXPECT_EQ(queued.Find("job")->AsInt(), 0);
  WaitEvent(client, "started");

  const auto [ticket, launch] = fx.fake().WaitForLaunch(0);
  EXPECT_EQ(launch.job_index, 0u);
  EXPECT_FALSE(launch.manifest_path.empty());
  const JsonValue row = FakeRow(m, 0);
  fx.fake().CompleteOk(ticket, row, "miss");

  const JsonValue result = WaitEvent(client, "result");
  EXPECT_FALSE(result.Find("cached")->AsBool());
  EXPECT_FALSE(result.Find("failed")->AsBool());
  EXPECT_EQ(result.Find("ckpt")->AsString(), "miss");
  EXPECT_EQ(result.Find("row")->Dump(), row.Dump());

  fx.Stop();
  EXPECT_EQ(fx.exit_code(), 0);
  EXPECT_EQ(fx.daemon().stats().admitted, 1u);
  EXPECT_EQ(fx.daemon().stats().jobs_ok, 1u);
  EXPECT_EQ(fx.daemon().stats().cache_stores, 1u);
}

TEST(FarmDaemonTest, SecondSubmitIsServedFromCache) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  Submit(client, mj, 0);
  WaitEvent(client, "queued");
  const auto [ticket, launch] = fx.fake().WaitForLaunch(0);
  const JsonValue row = FakeRow(m, 0);
  fx.fake().CompleteOk(ticket, row);
  WaitEvent(client, "result");

  // Same row again — served from the cache, no new launch.
  Submit(client, mj, 0);
  const JsonValue hit = WaitEvent(client, "result");
  EXPECT_TRUE(hit.Find("cached")->AsBool());
  EXPECT_EQ(hit.Find("row")->Dump(), row.Dump());
  EXPECT_EQ(fx.fake().launch_count(), 1u);

  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().cache_hits, 1u);
  EXPECT_EQ(fx.daemon().stats().cache_misses, 1u);
}

TEST(FarmDaemonTest, ConcurrentSubmittersCoalesceOntoOneSimulation) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient a;
  FarmClient b;
  std::string error;
  ASSERT_TRUE(a.Connect(fx.opts().socket_path, &error)) << error;
  ASSERT_TRUE(b.Connect(fx.opts().socket_path, &error)) << error;

  Submit(a, mj, 0);
  const JsonValue qa = WaitEvent(a, "queued");
  EXPECT_EQ(qa.Find("coalesced"), nullptr);

  Submit(b, mj, 0);
  const JsonValue qb = WaitEvent(b, "queued");
  ASSERT_NE(qb.Find("coalesced"), nullptr);
  EXPECT_TRUE(qb.Find("coalesced")->AsBool());
  EXPECT_EQ(qa.Find("ticket")->AsInt(), qb.Find("ticket")->AsInt());

  const auto [ticket, launch] = fx.fake().WaitForLaunch(0);
  const JsonValue row = FakeRow(m, 0);
  fx.fake().CompleteOk(ticket, row);

  // One simulation, both clients get the document.
  const JsonValue ra = WaitEvent(a, "result");
  const JsonValue rb = WaitEvent(b, "result");
  EXPECT_EQ(ra.Find("row")->Dump(), row.Dump());
  EXPECT_EQ(rb.Find("row")->Dump(), row.Dump());
  EXPECT_EQ(fx.fake().launch_count(), 1u);

  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().cache_coalesced, 1u);
}

TEST(FarmDaemonTest, QueueDrainsRoundRobinAcrossClients) {
  DaemonFixture fx(/*workers=*/1);
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest(/*extra_configs=*/2);  // 4 rows
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient a;
  FarmClient b;
  std::string error;
  ASSERT_TRUE(a.Connect(fx.opts().socket_path, &error)) << error;
  ASSERT_TRUE(b.Connect(fx.opts().socket_path, &error)) << error;

  // A's first job grabs the only slot; then A queues two more and B one.
  Submit(a, mj, 0);
  WaitEvent(a, "started");
  Submit(a, mj, 1);
  WaitEvent(a, "queued");
  Submit(a, mj, 2);
  WaitEvent(a, "queued");
  Submit(b, mj, 3);
  WaitEvent(b, "queued");

  // Completing each running job frees the slot; fairness hands it to the
  // *other* client before A's backlog: expected order 0, 1, 3, 2.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [ticket, launch] = fx.fake().WaitForLaunch(i);
    order.push_back(launch.job_index);
    fx.fake().CompleteOk(ticket, FakeRow(m, launch.job_index));
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 3, 2}));

  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().jobs_ok, 4u);
}

TEST(FarmDaemonTest, AdmissionControlRejectsWhenQueueIsFull) {
  DaemonFixture fx(/*workers=*/1, /*max_queued=*/1);
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest(/*extra_configs=*/1);  // 3 rows
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  Submit(client, mj, 0);
  WaitEvent(client, "started");  // slot taken
  Submit(client, mj, 1);
  WaitEvent(client, "queued");  // queue now at its cap
  Submit(client, mj, 2);
  const JsonValue rejected = WaitEvent(client, "rejected");
  EXPECT_EQ(rejected.Find("reason")->AsString(), "queue-full");
  EXPECT_EQ(rejected.Find("job")->AsInt(), 2);

  for (std::size_t i = 0; i < 2; ++i) {
    const auto [ticket, launch] = fx.fake().WaitForLaunch(i);
    fx.fake().CompleteOk(ticket, FakeRow(m, launch.job_index));
  }
  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().rejected, 1u);
}

TEST(FarmDaemonTest, DisconnectMidJobStillRunsAndCachesTheRow) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  {
    FarmClient doomed;
    std::string error;
    ASSERT_TRUE(doomed.Connect(fx.opts().socket_path, &error)) << error;
    Submit(doomed, mj, 0);
    WaitEvent(doomed, "queued");
    doomed.Close();  // client dies before its job finishes
  }
  const auto [ticket, launch] = fx.fake().WaitForLaunch(0);
  const JsonValue row = FakeRow(m, 0);
  fx.fake().CompleteOk(ticket, row);

  // The orphaned job's row still landed in the cache: a new client gets
  // an immediate hit.
  FarmClient fresh;
  std::string error;
  ASSERT_TRUE(fresh.Connect(fx.opts().socket_path, &error)) << error;
  Submit(fresh, mj, 0);
  const JsonValue hit = WaitEvent(fresh, "result");
  EXPECT_TRUE(hit.Find("cached")->AsBool());
  EXPECT_EQ(hit.Find("row")->Dump(), row.Dump());
  fx.Stop();
}

TEST(FarmDaemonTest, MalformedFrameClosesThatClientOnly) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());

  FarmClient bad;
  std::string error;
  ASSERT_TRUE(bad.Connect(fx.opts().socket_path, &error)) << error;
  // Oversized length prefix: the daemon answers with an error event and
  // cuts the connection.
  {
    // Reach the raw fd through a second connection we fully control.
    const int fd = ConnectUnix(fx.opts().socket_path, &error);
    ASSERT_GE(fd, 0) << error;
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(4, ::send(fd, huge, 4, MSG_NOSIGNAL));
    JsonValue ev;
    ASSERT_TRUE(ReadFrame(fd, &ev, &error)) << error;
    EXPECT_EQ(ev.Find("event")->AsString(), "error");
    // Next read: clean close.
    EXPECT_FALSE(ReadFrame(fd, &ev, &error));
    ::close(fd);
  }
  // The daemon is still alive and serving other clients.
  ASSERT_TRUE(bad.Ping(&error)) << error;
  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().frames_bad, 1u);
}

TEST(FarmDaemonTest, CancelDropsQueuedJob) {
  DaemonFixture fx(/*workers=*/1);
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  Submit(client, mj, 0);
  WaitEvent(client, "started");  // occupies the only slot
  Submit(client, mj, 1);
  const JsonValue queued = WaitEvent(client, "queued");
  const std::int64_t ticket = queued.Find("ticket")->AsInt();

  JsonValue cancel = JsonValue::Object();
  cancel.Set("op", JsonValue("cancel"));
  cancel.Set("ticket", JsonValue(ticket));
  ASSERT_TRUE(client.Send(cancel, &error)) << error;
  WaitEvent(client, "canceled");

  const auto [t0, l0] = fx.fake().WaitForLaunch(0);
  fx.fake().CompleteOk(t0, FakeRow(m, 0));
  WaitEvent(client, "result");
  // The canceled job never launched.
  EXPECT_EQ(fx.fake().launch_count(), 1u);
  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().jobs_canceled, 1u);
}

TEST(FarmDaemonTest, DrainPersistsQueueAndRestartRestoresIt) {
  DaemonFixture fx(/*workers=*/1);
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest(/*extra_configs=*/1);  // 3 rows
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  Submit(client, mj, 0);
  WaitEvent(client, "started");
  Submit(client, mj, 1);
  WaitEvent(client, "queued");
  Submit(client, mj, 2);
  WaitEvent(client, "queued");

  // Drain with one running and two queued: the running job finishes, the
  // queued two are persisted.
  FarmClient control;
  ASSERT_TRUE(control.Connect(fx.opts().socket_path, &error)) << error;
  JsonValue drain = JsonValue::Object();
  drain.Set("op", JsonValue("drain"));
  ASSERT_TRUE(control.Send(drain, &error)) << error;
  // A status round-trip on the same connection proves the daemon has
  // processed the drain (frames are handled in order) — only then may the
  // running job finish, else the freed slot could launch a queued job in
  // the window before the drain frame is read.
  JsonValue status_op = JsonValue::Object();
  status_op.Set("op", JsonValue("status"));
  ASSERT_TRUE(control.Send(status_op, &error)) << error;
  const JsonValue status = WaitEvent(control, "status");
  ASSERT_TRUE(status.Find("draining")->AsBool());

  const auto [t0, l0] = fx.fake().WaitForLaunch(0);
  fx.fake().CompleteOk(t0, FakeRow(m, 0));
  const JsonValue result = WaitEvent(client, "result");
  EXPECT_FALSE(result.Find("failed")->AsBool());
  const JsonValue drained = WaitEvent(control, "drained");
  EXPECT_EQ(drained.Find("persisted")->AsInt(), 2);
  fx.Join();
  EXPECT_EQ(fx.exit_code(), 0);
  EXPECT_EQ(fx.fake().launch_count(), 1u);
  ASSERT_TRUE(
      std::filesystem::exists(fx.opts().state_dir + "/queue.json"));

  // A new daemon on the same state dir restores and runs the remainder
  // as orphan jobs — their rows land in the cache.
  FakeExecutor fake2(fx.opts().state_dir + "/tmp");
  FarmDaemon daemon2(fx.opts(), &fake2);
  ASSERT_TRUE(daemon2.Init(&error)) << error;
  EXPECT_EQ(daemon2.queue_depth(), 2u);
  EXPECT_FALSE(
      std::filesystem::exists(fx.opts().state_dir + "/queue.json"));
  std::thread thread2([&] { daemon2.Serve(); });

  for (std::size_t i = 0; i < 2; ++i) {
    const auto [ticket, launch] = fake2.WaitForLaunch(i);
    fake2.CompleteOk(ticket, FakeRow(m, launch.job_index));
  }
  FarmClient fresh;
  ASSERT_TRUE(fresh.Connect(fx.opts().socket_path, &error)) << error;
  Submit(fresh, mj, 1);
  const JsonValue hit = WaitEvent(fresh, "result");
  EXPECT_TRUE(hit.Find("cached")->AsBool());

  FarmClient control2;
  ASSERT_TRUE(control2.Connect(fx.opts().socket_path, &error)) << error;
  ASSERT_TRUE(control2.Drain(nullptr, &error)) << error;
  thread2.join();
}

TEST(FarmDaemonTest, FailedJobsAreReportedButNeverCached) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  Submit(client, mj, 0);
  WaitEvent(client, "queued");
  const auto [t0, l0] = fx.fake().WaitForLaunch(0);
  fx.fake().CompleteFail(t0, 1);
  const JsonValue failed = WaitEvent(client, "result");
  EXPECT_TRUE(failed.Find("failed")->AsBool());
  EXPECT_EQ(failed.Find("row")->Find("error")->AsString(),
            "worker exited 1");

  // The failure was not cached: resubmitting simulates again.
  Submit(client, mj, 0);
  WaitEvent(client, "queued");
  const auto [t1, l1] = fx.fake().WaitForLaunch(1);
  fx.fake().CompleteOk(t1, FakeRow(m, 0));
  const JsonValue ok = WaitEvent(client, "result");
  EXPECT_FALSE(ok.Find("cached")->AsBool());
  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().jobs_failed, 1u);
  EXPECT_EQ(fx.daemon().stats().cache_stores, 1u);
}

// A mix row has no single binary to key the result cache on: it runs
// through the pool like any other row but is never cached.
TEST(FarmDaemonTest, MixJobsRunButAreNeverCached) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  runner::Manifest m = DaemonManifest();
  m.workloads.clear();
  runner::JobSpec mix;
  mix.workloads = {"matrix", "mcf"};
  mix.config = 0;
  m.extra_jobs = {mix};
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;
  for (std::size_t launch = 0; launch < 2; ++launch) {
    Submit(client, mj, 0);
    WaitEvent(client, "queued");
    const std::uint64_t ticket = fx.fake().WaitForLaunch(launch).first;
    JsonValue row = JsonValue::Object();
    row.Set("id", JsonValue("matrix+mcf/base"));
    fx.fake().CompleteOk(ticket, row);
    EXPECT_FALSE(WaitEvent(client, "result").Find("cached")->AsBool());
  }
  fx.Stop();
  EXPECT_EQ(fx.daemon().stats().jobs_ok, 2u);
  EXPECT_EQ(fx.daemon().stats().cache_stores, 0u);
}

TEST(FarmDaemonTest, BadSubmitsGetErrorEventsNotDisconnects) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.Start());
  const runner::Manifest m = DaemonManifest();
  const JsonValue mj = runner::ManifestToJson(m);

  FarmClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(fx.opts().socket_path, &error)) << error;

  // Job index out of range.
  Submit(client, mj, 99);
  JsonValue ev = WaitEvent(client, "error");
  EXPECT_NE(ev.Find("message")->AsString().find("out of range"),
            std::string::npos);

  // Unparseable manifest (unknown key is rejected, not ignored).
  JsonValue bogus = mj;
  bogus.Set("no_such_field", JsonValue(1));
  Submit(client, bogus, 0);
  ev = WaitEvent(client, "error");
  EXPECT_NE(ev.Find("message")->AsString().find("bad manifest"),
            std::string::npos);

  // Unknown workload name: rejected at submit, before the daemon would
  // try to build the workload (which aborts on an unknown name).
  runner::Manifest typo = m;
  typo.workloads = {"mfc"};
  Submit(client, runner::ManifestToJson(typo), 0);
  ev = WaitEvent(client, "error");
  EXPECT_NE(ev.Find("message")->AsString().find(
                "workloads[0]: unknown workload 'mfc'"),
            std::string::npos)
      << ev.Find("message")->AsString();

  // The connection survived all three.
  ASSERT_TRUE(client.Ping(&error)) << error;
  fx.Stop();
}

}  // namespace
}  // namespace spear::farm
