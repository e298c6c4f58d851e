#include "farm/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace spear::farm {
namespace {

using telemetry::JsonValue;

std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool WriteFileAtomic(const std::string& path, const std::string& text,
                     std::string* error) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot write " + tmp;
      return false;
    }
    out << text;
    if (!out.good()) {
      if (error != nullptr) *error = "short write to " + tmp;
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) *error = "rename to " + path + ": " + ec.message();
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

inline constexpr int kQueueFileVersion = 1;

}  // namespace

// ---------------------------------------------------------------- stats

void FarmStats::Register(telemetry::StatRegistry& reg) const {
  reg.BindCounter("runner.farm.submits", &submits, "submit ops received");
  reg.BindCounter("runner.farm.admitted", &admitted, "jobs admitted");
  reg.BindCounter("runner.farm.rejected", &rejected,
                  "submits rejected (queue-full/draining)");
  reg.BindCounter("runner.farm.cache.hits", &cache_hits,
                  "submits served from the result cache");
  reg.BindCounter("runner.farm.cache.misses", &cache_misses,
                  "submits that required a simulation");
  reg.BindCounter("runner.farm.cache.coalesced", &cache_coalesced,
                  "submits coalesced onto an in-flight job");
  reg.BindCounter("runner.farm.cache.stores", &cache_stores,
                  "rows written to the result cache");
  reg.BindCounter("runner.farm.jobs.ok", &jobs_ok, "jobs that completed");
  reg.BindCounter("runner.farm.jobs.failed", &jobs_failed, "jobs that failed");
  reg.BindCounter("runner.farm.jobs.canceled", &jobs_canceled,
                  "jobs canceled before a verdict");
  reg.BindCounter("runner.farm.queue.peak", &queue_peak,
                  "high-water mark of the admission queue");
  reg.BindCounter("runner.farm.clients.total", &clients_total,
                  "connections accepted over the daemon's life");
  reg.BindCounter("runner.farm.frames.bad", &frames_bad,
                  "malformed or oversized frames");
}

JsonValue FarmStats::Json() const {
  telemetry::StatRegistry reg;
  Register(reg);
  return reg.Json();
}

// --------------------------------------------------------- PoolExecutor

PoolExecutor::PoolExecutor(std::string spearrun_path, std::string ckpt_dir,
                           bool use_ckpt, std::string tmp_dir, int workers)
    : pool_(workers),
      spearrun_path_(std::move(spearrun_path)),
      ckpt_dir_(std::move(ckpt_dir)),
      use_ckpt_(use_ckpt),
      tmp_dir_(std::move(tmp_dir)) {}

std::uint64_t PoolExecutor::Start(const Launch& launch) {
  static std::uint64_t seq = 0;
  const std::string job_out =
      tmp_dir_ + "/exec" + std::to_string(++seq) + ".json";
  runner::PoolJob pj;
  // Same worker argv contract as runner::RunManifestParallel — the farm
  // path and the fork/exec path must execute byte-identical workers.
  pj.argv = {spearrun_path_,
             "--worker",
             "--manifest=" + launch.manifest_path,
             "--job=" + std::to_string(launch.job_index),
             "--job-out=" + job_out,
             "--ckpt-dir=" + ckpt_dir_};
  if (!use_ckpt_) pj.argv.push_back("--no-ckpt");
  if (launch.cosim) pj.argv.push_back("--cosim");
  pj.timeout_ms = launch.timeout_ms;
  pj.max_retries = launch.max_retries;
  pj.backoff_ms = launch.backoff_ms;
  pj.fail_fast_exits = {runner::kExitUsage, runner::kExitIncomplete,
                        runner::kExitCosim};
  pj.stderr_tail_bytes = 4096;
  const std::uint64_t ticket = pool_.Submit(std::move(pj));
  job_outs_[ticket] = job_out;
  return ticket;
}

void PoolExecutor::Cancel(std::uint64_t ticket) { pool_.Cancel(ticket); }

std::vector<JobExecutor::Completion> PoolExecutor::Pump() {
  pool_.Pump();
  std::vector<Completion> out;
  for (auto& [ticket, result] : pool_.TakeCompletions()) {
    Completion c;
    c.ticket = ticket;
    c.result = std::move(result);
    auto it = job_outs_.find(ticket);
    if (it != job_outs_.end()) {
      c.job_out_path = it->second;
      job_outs_.erase(it);
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::size_t PoolExecutor::in_flight() const { return pool_.outstanding(); }

// ------------------------------------------------------------ FarmDaemon

FarmDaemon::FarmDaemon(FarmOptions opts, JobExecutor* executor)
    : opts_(std::move(opts)) {
  if (opts_.cache_dir.empty()) opts_.cache_dir = opts_.state_dir + "/cache";
  if (executor != nullptr) {
    executor_ = executor;
  } else {
    owned_executor_ = std::make_unique<PoolExecutor>(
        opts_.spearrun_path, opts_.ckpt_dir, opts_.use_ckpt,
        opts_.state_dir + "/tmp", opts_.workers);
    executor_ = owned_executor_.get();
  }
}

FarmDaemon::~FarmDaemon() {
  for (auto& [id, c] : clients_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
}

bool FarmDaemon::Init(std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(opts_.state_dir + "/manifests", ec);
  std::filesystem::create_directories(opts_.state_dir + "/tmp", ec);
  std::filesystem::create_directories(opts_.cache_dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create state dir " + opts_.state_dir;
    }
    return false;
  }
  RestoreQueue();
  listen_fd_ = ListenUnix(opts_.socket_path, 64, error);
  if (listen_fd_ < 0) return false;
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
  if (opts_.verbose) {
    std::printf("spearfarm: listening on %s (%d workers, %zu restored)\n",
                opts_.socket_path.c_str(), opts_.workers, queued_count_);
    std::fflush(stdout);
  }
  return true;
}

int FarmDaemon::Serve() {
  while (true) {
    if (opts_.stop_flag != nullptr && *opts_.stop_flag != 0) {
      // Same exit path as drain, minus the reply: in-flight jobs are
      // already children and will be killed by the pool destructor, but
      // their queue entries were consumed — persist only what is queued.
      PersistQueue();
      return 0;
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    std::vector<std::uint64_t> order;
    for (auto& [id, c] : clients_) {
      fds.push_back({c.fd, POLLIN, 0});
      order.push_back(id);
    }
    ::poll(fds.data(), fds.size(), 25);

    if ((fds[0].revents & POLLIN) != 0) AcceptClients();
    std::vector<std::uint64_t> drop;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto it = clients_.find(order[i]);
      if (it == clients_.end()) continue;  // dropped by an earlier frame
      if (!ReadClient(it->second)) drop.push_back(order[i]);
    }
    for (const std::uint64_t id : drop) DropClient(id);

    DispatchQueued();
    HandleCompletions();

    if (draining_ && by_exec_.empty()) {
      const std::size_t persisted = PersistQueue();
      JsonValue ev = JsonValue::Object();
      ev.Set("event", JsonValue("drained"));
      ev.Set("persisted", JsonValue(static_cast<std::int64_t>(persisted)));
      SendEvent(drain_requester_, ev);
      if (opts_.verbose) {
        std::printf("spearfarm: drained (%zu queued jobs persisted)\n",
                    persisted);
        std::fflush(stdout);
      }
      return 0;
    }
  }
}

void FarmDaemon::AcceptClients() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error — poll again later
    Client c;
    c.fd = fd;
    c.id = next_client_++;
    ++stats_.clients_total;
    clients_.emplace(c.id, std::move(c));
  }
}

bool FarmDaemon::ReadClient(Client& c) {
  char buf[65536];
  while (true) {
    const ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) {
      // Disconnect. The client's jobs stay queued/running — their results
      // still land in the cache for the next submitter (warm restarts of
      // an interrupted sweep are the whole point).
      return false;
    }
    c.in.Append(buf, static_cast<std::size_t>(r));
    if (r < static_cast<ssize_t>(sizeof(buf))) break;
  }

  while (true) {
    JsonValue frame;
    std::string error;
    if (!c.in.Next(&frame, &error)) {
      if (error.empty()) return true;  // need more bytes
      // Malformed or oversized: the length prefix can no longer be
      // trusted, so answer once and cut the connection.
      ++stats_.frames_bad;
      JsonValue ev = JsonValue::Object();
      ev.Set("event", JsonValue("error"));
      ev.Set("message", JsonValue(error));
      std::string werr;
      WriteFrame(c.fd, ev, &werr);
      return false;
    }
    HandleFrame(c, frame);
    if (clients_.find(c.id) == clients_.end()) return true;  // dropped
  }
}

void FarmDaemon::DropClient(std::uint64_t id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return;
  ::close(it->second.fd);
  clients_.erase(it);
}

void FarmDaemon::SendEvent(std::uint64_t client_id, const JsonValue& event) {
  auto it = clients_.find(client_id);
  if (it == clients_.end()) return;  // orphaned subscriber
  std::string error;
  if (!WriteFrame(it->second.fd, event, &error)) DropClient(client_id);
}

void FarmDaemon::HandleFrame(Client& c, const JsonValue& frame) {
  const JsonValue* op = frame.Find("op");
  const std::string name = op != nullptr ? op->AsString() : "";
  if (name == "submit") {
    HandleSubmit(c, frame);
  } else if (name == "status") {
    HandleStatus(c);
  } else if (name == "ping") {
    JsonValue ev = JsonValue::Object();
    ev.Set("event", JsonValue("pong"));
    ev.Set("protocol", JsonValue(kFarmProtocolVersion));
    SendEvent(c.id, ev);
  } else if (name == "cancel") {
    HandleCancel(c, frame);
  } else if (name == "drain") {
    HandleDrain(c);
  } else {
    ++stats_.frames_bad;
    JsonValue ev = JsonValue::Object();
    ev.Set("event", JsonValue("error"));
    ev.Set("message", JsonValue("unknown op: " + name));
    SendEvent(c.id, ev);
  }
}

std::shared_ptr<FarmDaemon::StoredManifest> FarmDaemon::InternManifest(
    const JsonValue& manifest_json, std::string* error) {
  const std::string text = manifest_json.Dump(2) + "\n";
  const std::string hash = Hex64(Fnv1a64(text));
  auto it = manifests_.find(hash);
  if (it != manifests_.end()) return it->second;

  auto stored = std::make_shared<StoredManifest>();
  if (!runner::ParseManifest(text, &stored->m, error)) return nullptr;
  stored->path = opts_.state_dir + "/manifests/" + hash + ".json";
  if (!std::filesystem::exists(stored->path) &&
      !WriteFileAtomic(stored->path, text, error)) {
    return nullptr;
  }
  stored->jobs = runner::ExpandJobs(stored->m);
  manifests_.emplace(hash, stored);
  return stored;
}

void FarmDaemon::HandleSubmit(Client& c, const JsonValue& frame) {
  ++stats_.submits;
  const JsonValue* man_json = frame.Find("manifest");
  const JsonValue* job_field = frame.Find("job");
  const std::int64_t job_echo =
      job_field != nullptr ? job_field->AsInt() : -1;
  const JsonValue* cosim_field = frame.Find("cosim");
  const bool cosim = cosim_field != nullptr && cosim_field->AsBool();

  auto send_error = [&](const std::string& msg) {
    JsonValue ev = JsonValue::Object();
    ev.Set("event", JsonValue("error"));
    if (job_echo >= 0) ev.Set("job", JsonValue(job_echo));
    ev.Set("message", JsonValue(msg));
    SendEvent(c.id, ev);
  };
  auto send_rejected = [&](const char* reason) {
    ++stats_.rejected;
    JsonValue ev = JsonValue::Object();
    ev.Set("event", JsonValue("rejected"));
    if (job_echo >= 0) ev.Set("job", JsonValue(job_echo));
    ev.Set("reason", JsonValue(reason));
    SendEvent(c.id, ev);
  };

  if (man_json == nullptr || job_field == nullptr) {
    send_error("submit needs \"manifest\" and \"job\"");
    return;
  }
  std::string error;
  std::shared_ptr<StoredManifest> man = InternManifest(*man_json, &error);
  if (man == nullptr) {
    send_error("bad manifest: " + error);
    return;
  }
  if (job_echo < 0 ||
      static_cast<std::size_t>(job_echo) >= man->jobs.size()) {
    send_error("job index " + std::to_string(job_echo) + " out of range (" +
               std::to_string(man->jobs.size()) + " jobs)");
    return;
  }
  const std::size_t job_index = static_cast<std::size_t>(job_echo);
  const runner::JobSpec& spec = man->jobs[job_index];

  // A debug_hang job deliberately never produces a cacheable row (it
  // exists to exercise pool timeouts), and a mix job has no single binary
  // to fingerprint, so both bypass cache + coalescing.
  ResultCacheKey key;
  if (!spec.debug_hang && !spec.is_mix()) {
    const runner::ConfigSpec& cfg = man->m.configs[spec.config];
    const EvalOptions eopts = runner::MakeEvalOptions(man->m.defaults, cfg);
    const PreparedWorkload& pw = workloads_.Get(spec.workload, eopts);
    std::ostringstream fkey;
    fkey << spec.workload << "|" << eopts.ref_seed << "|"
         << eopts.profile_seed << "|" << eopts.compiler.slicer.dcycle_budget
         << "|" << eopts.compiler.profiler.max_instrs;
    auto fit = fingerprints_.find(fkey.str());
    if (fit == fingerprints_.end()) {
      fit = fingerprints_.emplace(fkey.str(), BinaryFingerprint(pw)).first;
    }
    key = MakeResultKey(man->m, spec, fit->second, cosim);

    JsonValue row;
    std::string ckpt;
    if (LoadResult(opts_.cache_dir, key, &row, &ckpt)) {
      ++stats_.cache_hits;
      JsonValue ev = JsonValue::Object();
      ev.Set("event", JsonValue("result"));
      ev.Set("job", JsonValue(job_echo));
      ev.Set("cached", JsonValue(true));
      ev.Set("ckpt", JsonValue(ckpt));
      ev.Set("failed", JsonValue(false));
      ev.Set("row", std::move(row));
      SendEvent(c.id, ev);
      return;
    }
    ++stats_.cache_misses;

    auto inflight = inflight_by_key_.find(key.key);
    if (inflight != inflight_by_key_.end()) {
      // Coalesce: one simulation, every subscriber gets the document.
      ++stats_.cache_coalesced;
      FarmJob& job = jobs_.at(inflight->second);
      job.subs.push_back({c.id, job_echo});
      JsonValue ev = JsonValue::Object();
      ev.Set("event", JsonValue("queued"));
      ev.Set("ticket", JsonValue(job.ticket));
      ev.Set("job", JsonValue(job_echo));
      ev.Set("coalesced", JsonValue(true));
      SendEvent(c.id, ev);
      return;
    }
  } else {
    ++stats_.cache_misses;
  }

  if (draining_) {
    send_rejected("draining");
    return;
  }
  if (queued_count_ >= opts_.max_queued) {
    send_rejected("queue-full");
    return;
  }

  FarmJob job;
  job.ticket = next_ticket_++;
  job.man = std::move(man);
  job.job_index = job_index;
  job.cosim = cosim;
  job.key = std::move(key);
  job.owner = c.id;
  job.subs.push_back({c.id, job_echo});
  if (!job.key.key.empty()) inflight_by_key_[job.key.key] = job.ticket;
  const std::uint64_t ticket = job.ticket;
  jobs_.emplace(ticket, std::move(job));
  EnqueueTicket(ticket, c.id);
  ++stats_.admitted;
  if (queued_count_ > stats_.queue_peak) stats_.queue_peak = queued_count_;

  JsonValue ev = JsonValue::Object();
  ev.Set("event", JsonValue("queued"));
  ev.Set("ticket", JsonValue(ticket));
  ev.Set("job", JsonValue(job_echo));
  SendEvent(c.id, ev);
}

void FarmDaemon::HandleCancel(Client& c, const JsonValue& frame) {
  const JsonValue* tf = frame.Find("ticket");
  const std::uint64_t ticket =
      tf != nullptr ? static_cast<std::uint64_t>(tf->AsInt()) : 0;
  auto it = jobs_.find(ticket);
  JsonValue ev = JsonValue::Object();
  ev.Set("event", JsonValue("canceled"));
  ev.Set("ticket", JsonValue(ticket));
  if (it == jobs_.end()) {
    // Already finished (or never existed): cancel is an idempotent no-op.
    SendEvent(c.id, ev);
    return;
  }
  FarmJob& job = it->second;
  if (job.running) {
    // The kill surfaces through the executor as a canceled PoolResult;
    // subscribers get their result event from HandleCompletions.
    executor_->Cancel(job.exec_ticket);
    SendEvent(c.id, ev);
    return;
  }
  RemoveQueuedTicket(ticket);
  ++stats_.jobs_canceled;
  for (const Subscriber& s : job.subs) {
    JsonValue sub_ev = JsonValue::Object();
    sub_ev.Set("event", JsonValue("canceled"));
    sub_ev.Set("ticket", JsonValue(ticket));
    sub_ev.Set("job", JsonValue(s.job_echo));
    SendEvent(s.client, sub_ev);
  }
  if (!job.key.key.empty()) inflight_by_key_.erase(job.key.key);
  jobs_.erase(it);
  // The canceling client may not be a subscriber (e.g. an operator tool).
  SendEvent(c.id, ev);
}

void FarmDaemon::HandleStatus(Client& c) {
  JsonValue ev = JsonValue::Object();
  ev.Set("event", JsonValue("status"));
  ev.Set("protocol", JsonValue(kFarmProtocolVersion));
  ev.Set("queue_depth", JsonValue(static_cast<std::int64_t>(queued_count_)));
  ev.Set("in_flight",
         JsonValue(static_cast<std::int64_t>(executor_->in_flight())));
  ev.Set("draining", JsonValue(draining_));
  ev.Set("stats", stats_.Json());
  SendEvent(c.id, ev);
}

void FarmDaemon::HandleDrain(Client& c) {
  draining_ = true;
  drain_requester_ = c.id;
  // The reply comes from Serve() once in-flight jobs finish.
}

void FarmDaemon::EnqueueTicket(std::uint64_t ticket, std::uint64_t owner) {
  auto& q = queues_[owner];
  if (q.empty()) rr_.push_back(owner);
  q.push_back(ticket);
  ++queued_count_;
}

std::uint64_t FarmDaemon::DequeueNextFair() {
  while (!rr_.empty()) {
    const std::uint64_t owner = rr_.front();
    rr_.pop_front();
    auto it = queues_.find(owner);
    if (it == queues_.end() || it->second.empty()) {
      queues_.erase(owner);
      continue;
    }
    const std::uint64_t ticket = it->second.front();
    it->second.pop_front();
    --queued_count_;
    if (it->second.empty()) {
      queues_.erase(it);
    } else {
      rr_.push_back(owner);  // rotate: next pick serves another client
    }
    return ticket;
  }
  return 0;
}

bool FarmDaemon::RemoveQueuedTicket(std::uint64_t ticket) {
  for (auto& [owner, q] : queues_) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (*it == ticket) {
        q.erase(it);
        --queued_count_;
        return true;
      }
    }
  }
  return false;
}

void FarmDaemon::DispatchQueued() {
  while (!draining_ &&
         executor_->in_flight() < static_cast<std::size_t>(opts_.workers)) {
    const std::uint64_t ticket = DequeueNextFair();
    if (ticket == 0) return;
    auto it = jobs_.find(ticket);
    if (it == jobs_.end()) continue;  // canceled while queued
    FarmJob& job = it->second;
    const runner::JobSpec& spec = job.man->jobs[job.job_index];
    const runner::ManifestDefaults& d = job.man->m.defaults;

    JobExecutor::Launch launch;
    launch.manifest_path = job.man->path;
    launch.job_index = job.job_index;
    launch.cosim = job.cosim;
    launch.timeout_ms = spec.timeout_ms != 0 ? spec.timeout_ms : d.timeout_ms;
    launch.max_retries = spec.max_retries >= 0 ? spec.max_retries
                                               : d.max_retries;
    launch.backoff_ms = d.backoff_ms;
    job.exec_ticket = executor_->Start(launch);
    job.running = true;
    by_exec_[job.exec_ticket] = ticket;

    for (const Subscriber& s : job.subs) {
      JsonValue ev = JsonValue::Object();
      ev.Set("event", JsonValue("started"));
      ev.Set("ticket", JsonValue(ticket));
      ev.Set("job", JsonValue(s.job_echo));
      SendEvent(s.client, ev);
    }
    if (opts_.verbose) {
      std::printf("spearfarm: start %s (ticket %llu)\n",
                  runner::JobId(job.man->m, spec).c_str(),
                  static_cast<unsigned long long>(ticket));
      std::fflush(stdout);
    }
  }
}

void FarmDaemon::HandleCompletions() {
  for (JobExecutor::Completion& comp : executor_->Pump()) {
    auto bx = by_exec_.find(comp.ticket);
    if (bx == by_exec_.end()) continue;
    const std::uint64_t ticket = bx->second;
    by_exec_.erase(bx);
    auto it = jobs_.find(ticket);
    if (it == jobs_.end()) continue;
    FarmJob& job = it->second;
    const runner::JobSpec& spec = job.man->jobs[job.job_index];

    runner::WorkerRow recovered = runner::RecoverWorkerRow(
        job.man->m, spec, comp.result, comp.job_out_path);
    const bool failed = !comp.result.ok;
    if (comp.result.canceled) {
      ++stats_.jobs_canceled;
    } else if (failed) {
      ++stats_.jobs_failed;
    } else {
      ++stats_.jobs_ok;
    }
    // Only verdict rows that actually came from a worker are cacheable —
    // and failed ones never are (a timeout on a loaded host must not
    // poison future runs).
    if (!failed && recovered.from_worker && !job.key.key.empty()) {
      std::string error;
      if (StoreResult(opts_.cache_dir, job.key, recovered.row,
                      recovered.ckpt, &error)) {
        ++stats_.cache_stores;
      } else if (opts_.verbose) {
        std::printf("spearfarm: cache store failed: %s\n", error.c_str());
      }
    }
    if (!comp.job_out_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(comp.job_out_path, ec);
    }

    for (const Subscriber& s : job.subs) {
      JsonValue ev = JsonValue::Object();
      ev.Set("event", JsonValue("result"));
      ev.Set("ticket", JsonValue(ticket));
      ev.Set("job", JsonValue(s.job_echo));
      ev.Set("cached", JsonValue(false));
      ev.Set("ckpt", JsonValue(recovered.ckpt));
      ev.Set("failed", JsonValue(failed));
      ev.Set("row", recovered.row);
      SendEvent(s.client, ev);
    }
    if (opts_.verbose) {
      std::printf("spearfarm: done %s (%s)\n",
                  runner::JobId(job.man->m, spec).c_str(),
                  failed ? "failed" : "ok");
      std::fflush(stdout);
    }
    if (!job.key.key.empty()) inflight_by_key_.erase(job.key.key);
    jobs_.erase(it);
  }
}

std::size_t FarmDaemon::PersistQueue() {
  JsonValue doc = JsonValue::Object();
  doc.Set("farm_queue_version", JsonValue(kQueueFileVersion));
  JsonValue entries = JsonValue::Array();
  std::size_t n = 0;
  // Persist in fair-dequeue order so a restart resumes exactly where the
  // drain stopped.
  std::uint64_t ticket = 0;
  while ((ticket = DequeueNextFair()) != 0) {
    auto it = jobs_.find(ticket);
    if (it == jobs_.end()) continue;
    const FarmJob& job = it->second;
    JsonValue e = JsonValue::Object();
    e.Set("manifest", JsonValue(job.man->path));
    e.Set("job", JsonValue(static_cast<std::int64_t>(job.job_index)));
    if (job.cosim) e.Set("cosim", JsonValue(true));
    entries.Append(std::move(e));
    ++n;
  }
  doc.Set("jobs", std::move(entries));
  std::string error;
  WriteFileAtomic(opts_.state_dir + "/queue.json", doc.Dump(2) + "\n",
                  &error);
  return n;
}

void FarmDaemon::RestoreQueue() {
  const std::string path = opts_.state_dir + "/queue.json";
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);  // consumed either way

  JsonValue doc;
  std::string error;
  if (!telemetry::JsonParse(buf.str(), &doc, &error)) return;
  const JsonValue* version = doc.Find("farm_queue_version");
  if (version == nullptr || version->AsInt() != kQueueFileVersion) return;
  const JsonValue* entries = doc.Find("jobs");
  if (entries == nullptr) return;

  for (const JsonValue& e : entries->items()) {
    const JsonValue* man_path = e.Find("manifest");
    const JsonValue* job_field = e.Find("job");
    if (man_path == nullptr || job_field == nullptr) continue;
    std::ifstream mf(man_path->AsString(), std::ios::binary);
    if (!mf) continue;
    std::ostringstream mtext;
    mtext << mf.rdbuf();
    JsonValue man_json;
    if (!telemetry::JsonParse(mtext.str(), &man_json, &error)) continue;
    std::shared_ptr<StoredManifest> man = InternManifest(man_json, &error);
    if (man == nullptr) continue;
    const std::size_t job_index =
        static_cast<std::size_t>(job_field->AsInt());
    if (job_index >= man->jobs.size()) continue;
    const JsonValue* cosim_field = e.Find("cosim");
    const bool cosim = cosim_field != nullptr && cosim_field->AsBool();

    // Restored jobs are orphans (owner 0): no subscribers, but their
    // results land in the cache, which is the reason they were persisted.
    FarmJob job;
    job.ticket = next_ticket_++;
    job.man = std::move(man);
    job.job_index = job_index;
    job.cosim = cosim;
    job.owner = 0;
    if (!job.man->jobs[job_index].debug_hang &&
        !job.man->jobs[job_index].is_mix()) {
      // Cache-key the restored job so later submits of the same row
      // coalesce onto it; if the row got cached between persist and
      // restart there is nothing left to do.
      const runner::JobSpec& spec = job.man->jobs[job_index];
      const runner::ConfigSpec& cfg = job.man->m.configs[spec.config];
      const EvalOptions eopts =
          runner::MakeEvalOptions(job.man->m.defaults, cfg);
      const PreparedWorkload& pw = workloads_.Get(spec.workload, eopts);
      job.key = MakeResultKey(job.man->m, spec, BinaryFingerprint(pw), cosim);
      if (ProbeResult(opts_.cache_dir, job.key, nullptr)) continue;
      if (inflight_by_key_.count(job.key.key) != 0) continue;
      inflight_by_key_[job.key.key] = job.ticket;
    }
    const std::uint64_t ticket = job.ticket;
    jobs_.emplace(ticket, std::move(job));
    EnqueueTicket(ticket, 0);
  }
  if (queued_count_ > stats_.queue_peak) stats_.queue_peak = queued_count_;
}

}  // namespace spear::farm
