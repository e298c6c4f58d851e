#include "runner/manifest.h"

#include <fstream>
#include <set>
#include <sstream>

#include "workloads/workload.h"

namespace spear::runner {
namespace {

using telemetry::JsonValue;

// Accumulates the first error with its JSON path, parser-combinator
// style: every accessor is a no-op once an error is recorded, so parse
// code reads straight-line and the caller gets one precise diagnostic.
class Ctx {
 public:
  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  void Fail(const std::string& path, const std::string& message) {
    if (error_.empty()) error_ = path + ": " + message;
  }

  const JsonValue* Object(const JsonValue& v, const std::string& path) {
    if (failed()) return nullptr;
    if (v.kind() != JsonValue::Kind::kObject) {
      Fail(path, "expected an object");
      return nullptr;
    }
    return &v;
  }

  // Rejects members of `obj` outside `known` (typo protection).
  void CheckKeys(const JsonValue& obj, const std::string& path,
                 const std::set<std::string>& known) {
    if (failed()) return;
    for (const auto& [key, value] : obj.members()) {
      if (!known.count(key)) {
        Fail(path.empty() ? key : path + "." + key, "unknown key");
        return;
      }
    }
  }

  std::string Str(const JsonValue& obj, const std::string& path,
                  const std::string& key, const std::string& def = "") {
    const JsonValue* v = obj.Find(key);
    if (failed() || v == nullptr) return def;
    if (v->kind() != JsonValue::Kind::kString) {
      Fail(Join(path, key), "expected a string");
      return def;
    }
    return v->AsString();
  }

  std::int64_t Int(const JsonValue& obj, const std::string& path,
                   const std::string& key, std::int64_t def) {
    const JsonValue* v = obj.Find(key);
    if (failed() || v == nullptr) return def;
    if (v->kind() != JsonValue::Kind::kInt) {
      Fail(Join(path, key), "expected an integer");
      return def;
    }
    return v->AsInt();
  }

  std::uint64_t U64(const JsonValue& obj, const std::string& path,
                    const std::string& key, std::uint64_t def) {
    const std::int64_t v = Int(obj, path, key, static_cast<std::int64_t>(def));
    if (!failed() && v < 0) {
      Fail(Join(path, key), "must be >= 0");
      return def;
    }
    return static_cast<std::uint64_t>(v);
  }

  double Num(const JsonValue& obj, const std::string& path,
             const std::string& key, double def) {
    const JsonValue* v = obj.Find(key);
    if (failed() || v == nullptr) return def;
    if (!v->is_number()) {
      Fail(Join(path, key), "expected a number");
      return def;
    }
    return v->AsDouble();
  }

  bool Bool(const JsonValue& obj, const std::string& path,
            const std::string& key, bool def) {
    const JsonValue* v = obj.Find(key);
    if (failed() || v == nullptr) return def;
    if (v->kind() != JsonValue::Kind::kBool) {
      Fail(Join(path, key), "expected true or false");
      return def;
    }
    return v->AsBool();
  }

  static std::string Join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "." + key;
  }

 private:
  std::string error_;
};

std::string Elem(const std::string& base, std::size_t i) {
  return base + "[" + std::to_string(i) + "]";
}

const std::set<std::string> kDefaultsKeys = {
    "sim_instrs", "max_cycles", "ref_seed",    "profile_seed",
    "ff_instrs",  "timeout_ms", "max_retries", "backoff_ms",
    "scale",      "sampling"};

const std::set<std::string> kSamplingKeys = {"period", "detail", "warmup"};

const std::set<std::string> kConfigKeys = {
    "label",         "binary",
    "spear",         "separate_fu",
    "ifq",           "mem_latency",
    "l2_latency",    "bpred_kind",
    "bpred_entries", "trigger_occupancy_div",
    "extract_per_cycle", "drain_policy",
    "chaining_trigger",  "stride_prefetch",
    "stride_degree",     "dcycle_budget",
    "taint",             "fence_spec_loads",
    "cores",             "xcore_pthreads"};

const std::set<std::string> kJobKeys = {"workload",   "workloads",
                                        "config",     "debug_hang",
                                        "timeout_ms", "max_retries"};

const std::set<std::string> kDerivedKeys = {"name", "op", "metric", "num",
                                            "den"};

const std::set<std::string> kTopKeys = {
    "manifest_version", "name",     "defaults", "workloads",
    "configs",          "jobs",     "derived"};

void ParseDefaults(Ctx& ctx, const JsonValue& obj, ManifestDefaults* d) {
  const std::string path = "defaults";
  ctx.CheckKeys(obj, path, kDefaultsKeys);
  d->sim_instrs = ctx.U64(obj, path, "sim_instrs", d->sim_instrs);
  d->max_cycles = ctx.U64(obj, path, "max_cycles", d->max_cycles);
  d->ref_seed = ctx.U64(obj, path, "ref_seed", d->ref_seed);
  d->profile_seed = ctx.U64(obj, path, "profile_seed", d->profile_seed);
  d->ff_instrs = ctx.U64(obj, path, "ff_instrs", d->ff_instrs);
  d->timeout_ms = ctx.U64(obj, path, "timeout_ms", d->timeout_ms);
  d->max_retries = static_cast<int>(ctx.Int(obj, path, "max_retries",
                                            d->max_retries));
  d->backoff_ms = ctx.U64(obj, path, "backoff_ms", d->backoff_ms);
  d->scale = static_cast<int>(ctx.Int(obj, path, "scale", d->scale));
  if (!ctx.failed() && d->scale < 1) {
    ctx.Fail(path + ".scale", "must be >= 1");
    return;
  }
  if (const JsonValue* s = obj.Find("sampling"); s != nullptr) {
    const std::string spath = path + ".sampling";
    if (ctx.Object(*s, spath) == nullptr) return;
    ctx.CheckKeys(*s, spath, kSamplingKeys);
    d->sampling.period = ctx.U64(*s, spath, "period", d->sampling.period);
    d->sampling.detail = ctx.U64(*s, spath, "detail", d->sampling.detail);
    d->sampling.warmup = ctx.U64(*s, spath, "warmup", d->sampling.warmup);
    std::string why;
    if (!ctx.failed() && !d->sampling.Validate(&why)) ctx.Fail(spath, why);
  }
}

void ParseConfig(Ctx& ctx, const JsonValue& obj, const std::string& path,
                 ConfigSpec* c) {
  ctx.CheckKeys(obj, path, kConfigKeys);
  c->label = ctx.Str(obj, path, "label");
  if (!ctx.failed() && c->label.empty()) {
    ctx.Fail(path + ".label", "missing or empty");
    return;
  }
  c->binary = ctx.Str(obj, path, "binary");
  if (!ctx.failed() && !c->binary.empty() && c->binary != "plain" &&
      c->binary != "annotated") {
    ctx.Fail(path + ".binary", "must be 'plain' or 'annotated', got '" +
                                   c->binary + "'");
    return;
  }
  c->spear = ctx.Bool(obj, path, "spear", false);
  c->separate_fu = ctx.Bool(obj, path, "separate_fu", false);
  c->ifq = static_cast<std::uint32_t>(ctx.U64(obj, path, "ifq", 128));
  c->mem_latency =
      static_cast<std::uint32_t>(ctx.U64(obj, path, "mem_latency", 0));
  c->l2_latency =
      static_cast<std::uint32_t>(ctx.U64(obj, path, "l2_latency", 0));
  c->bpred_kind = ctx.Str(obj, path, "bpred_kind");
  if (!ctx.failed() && !c->bpred_kind.empty() && c->bpred_kind != "bimodal" &&
      c->bpred_kind != "gshare" && c->bpred_kind != "static_btfn" &&
      c->bpred_kind != "always_taken") {
    ctx.Fail(path + ".bpred_kind",
             "unknown predictor '" + c->bpred_kind + "'");
    return;
  }
  c->bpred_entries =
      static_cast<std::uint32_t>(ctx.U64(obj, path, "bpred_entries", 0));
  c->trigger_occupancy_div = static_cast<std::uint32_t>(
      ctx.U64(obj, path, "trigger_occupancy_div", 0));
  c->extract_per_cycle = static_cast<std::int32_t>(
      ctx.Int(obj, path, "extract_per_cycle", -1));
  c->drain_policy = ctx.Str(obj, path, "drain_policy");
  if (!ctx.failed() && !c->drain_policy.empty() &&
      c->drain_policy != "immediate" &&
      c->drain_policy != "drain_to_trigger" &&
      c->drain_policy != "stall_dispatch") {
    ctx.Fail(path + ".drain_policy",
             "unknown policy '" + c->drain_policy + "'");
    return;
  }
  c->chaining_trigger = ctx.Bool(obj, path, "chaining_trigger", false);
  c->stride_prefetch = ctx.Bool(obj, path, "stride_prefetch", false);
  c->stride_degree =
      static_cast<std::uint32_t>(ctx.U64(obj, path, "stride_degree", 0));
  c->dcycle_budget = ctx.Num(obj, path, "dcycle_budget", 0.0);
  c->taint = ctx.Bool(obj, path, "taint", false);
  c->fence_spec_loads = ctx.Bool(obj, path, "fence_spec_loads", false);
  c->cores = static_cast<std::uint32_t>(ctx.U64(obj, path, "cores", 1));
  if (!ctx.failed() && c->cores < 1) {
    ctx.Fail(path + ".cores", "must be >= 1");
    return;
  }
  c->xcore_pthreads = ctx.Bool(obj, path, "xcore_pthreads", false);
  if (!ctx.failed() && c->xcore_pthreads && !c->spear) {
    ctx.Fail(path + ".xcore_pthreads", "needs spear: true");
    return;
  }
  if (!ctx.failed() && c->xcore_pthreads && c->cores < 2) {
    ctx.Fail(path + ".xcore_pthreads",
             "needs a CMP config (cores >= 2) to have a donor core");
    return;
  }
}

void ParseJob(Ctx& ctx, const JsonValue& obj, const std::string& path,
              const Manifest& m, JobSpec* j) {
  ctx.CheckKeys(obj, path, kJobKeys);
  j->workload = ctx.Str(obj, path, "workload");
  if (const JsonValue* ws = obj.Find("workloads"); ws != nullptr) {
    if (!ctx.failed() && ws->kind() != JsonValue::Kind::kArray) {
      ctx.Fail(path + ".workloads", "expected an array");
      return;
    }
    for (std::size_t i = 0; i < ws->items().size(); ++i) {
      if (ws->items()[i].kind() != JsonValue::Kind::kString) {
        ctx.Fail(Elem(path + ".workloads", i),
                 "expected a workload name string");
        return;
      }
      j->workloads.push_back(ws->items()[i].AsString());
    }
    if (!ctx.failed() && j->workloads.size() < 2) {
      ctx.Fail(path + ".workloads",
               "a mix needs at least two workloads (use 'workload' for one)");
      return;
    }
    if (!ctx.failed() && !j->workload.empty()) {
      ctx.Fail(path + ".workloads", "mutually exclusive with 'workload'");
      return;
    }
  }
  if (!ctx.failed() && j->workload.empty() && j->workloads.empty()) {
    ctx.Fail(path + ".workload", "missing or empty");
    return;
  }
  const std::string label = ctx.Str(obj, path, "config");
  if (ctx.failed()) return;
  j->config = -1;
  for (std::size_t i = 0; i < m.configs.size(); ++i) {
    if (m.configs[i].label == label) j->config = static_cast<int>(i);
  }
  if (j->config < 0) {
    ctx.Fail(path + ".config", "no config labeled '" + label + "'");
    return;
  }
  // The only supported topologies: SMT (cores == 1) and one program per
  // core (cores == mix size). Catch mismatches at parse time, not after
  // the first N-1 jobs already ran.
  const std::uint32_t cores = m.configs[j->config].cores;
  if (j->is_mix()) {
    if (cores != 1 && cores != j->workloads.size()) {
      ctx.Fail(path + ".config",
               "config '" + label + "' has cores=" + std::to_string(cores) +
                   " but the mix lists " + std::to_string(j->workloads.size()) +
                   " workloads (want 1 for SMT or one core per program)");
      return;
    }
  } else if (cores != 1) {
    ctx.Fail(path + ".config",
             "config '" + label + "' has cores=" + std::to_string(cores) +
                 " — a single-workload job needs cores=1 (use 'workloads' "
                 "for a mix)");
    return;
  }
  j->debug_hang = ctx.Bool(obj, path, "debug_hang", false);
  j->timeout_ms = ctx.U64(obj, path, "timeout_ms", 0);
  j->max_retries = static_cast<int>(ctx.Int(obj, path, "max_retries", -1));
}

void ParseDerived(Ctx& ctx, const JsonValue& obj, const std::string& path,
                  const Manifest& m, DerivedSpec* d) {
  ctx.CheckKeys(obj, path, kDerivedKeys);
  d->name = ctx.Str(obj, path, "name");
  d->op = ctx.Str(obj, path, "op");
  d->metric = ctx.Str(obj, path, "metric");
  d->num = ctx.Str(obj, path, "num");
  d->den = ctx.Str(obj, path, "den");
  if (ctx.failed()) return;
  if (d->name.empty()) {
    ctx.Fail(path + ".name", "missing or empty");
    return;
  }
  if (d->op != "mean_ratio" && d->op != "mean_reduction") {
    ctx.Fail(path + ".op", "must be 'mean_ratio' or 'mean_reduction', got '" +
                               d->op + "'");
    return;
  }
  if (d->metric.empty()) {
    ctx.Fail(path + ".metric", "missing or empty");
    return;
  }
  for (const std::string* label : {&d->num, &d->den}) {
    bool found = false;
    for (const ConfigSpec& c : m.configs) found |= c.label == *label;
    if (!found) {
      ctx.Fail(path + (label == &d->num ? ".num" : ".den"),
               "no config labeled '" + *label + "'");
      return;
    }
  }
}

// Every workload name must be a registered kernel. The workload build
// aborts on an unknown name, so a typo caught here is a usage error
// instead of a crashed worker.
void CheckWorkloadNames(Ctx& ctx, const Manifest& m) {
  auto check = [&ctx](const std::string& path, const std::string& name) {
    for (const WorkloadInfo& w : AllWorkloads()) {
      if (name == w.name) return;
    }
    ctx.Fail(path, "unknown workload '" + name + "'");
  };
  for (std::size_t i = 0; i < m.workloads.size(); ++i) {
    check(Elem("workloads", i), m.workloads[i]);
  }
  for (std::size_t i = 0; i < m.extra_jobs.size(); ++i) {
    const JobSpec& j = m.extra_jobs[i];
    if (!j.is_mix()) check(Elem("jobs", i) + ".workload", j.workload);
    for (std::size_t k = 0; k < j.workloads.size(); ++k) {
      check(Elem(Elem("jobs", i) + ".workloads", k), j.workloads[k]);
    }
  }
}

// --- emission helpers (only non-default fields, fixed key order) ---

JsonValue DefaultsToJson(const ManifestDefaults& d) {
  const ManifestDefaults def;
  JsonValue o = JsonValue::Object();
  o.Set("sim_instrs", JsonValue(d.sim_instrs));
  o.Set("max_cycles", JsonValue(d.max_cycles));
  o.Set("ref_seed", JsonValue(d.ref_seed));
  o.Set("profile_seed", JsonValue(d.profile_seed));
  if (d.ff_instrs != def.ff_instrs) o.Set("ff_instrs", JsonValue(d.ff_instrs));
  if (d.timeout_ms != def.timeout_ms) {
    o.Set("timeout_ms", JsonValue(d.timeout_ms));
  }
  if (d.max_retries != def.max_retries) {
    o.Set("max_retries", JsonValue(static_cast<std::int64_t>(d.max_retries)));
  }
  if (d.backoff_ms != def.backoff_ms) {
    o.Set("backoff_ms", JsonValue(d.backoff_ms));
  }
  if (d.scale != def.scale) {
    o.Set("scale", JsonValue(static_cast<std::int64_t>(d.scale)));
  }
  if (d.sampling.enabled()) {
    JsonValue s = JsonValue::Object();
    s.Set("period", JsonValue(d.sampling.period));
    s.Set("detail", JsonValue(d.sampling.detail));
    s.Set("warmup", JsonValue(d.sampling.warmup));
    o.Set("sampling", std::move(s));
  }
  return o;
}

JsonValue ConfigToJson(const ConfigSpec& c) {
  JsonValue o = JsonValue::Object();
  o.Set("label", JsonValue(c.label));
  if (!c.binary.empty()) o.Set("binary", JsonValue(c.binary));
  if (c.spear) o.Set("spear", JsonValue(true));
  if (c.separate_fu) o.Set("separate_fu", JsonValue(true));
  if (c.ifq != 128) {
    o.Set("ifq", JsonValue(static_cast<std::int64_t>(c.ifq)));
  }
  if (c.mem_latency != 0) {
    o.Set("mem_latency", JsonValue(static_cast<std::int64_t>(c.mem_latency)));
  }
  if (c.l2_latency != 0) {
    o.Set("l2_latency", JsonValue(static_cast<std::int64_t>(c.l2_latency)));
  }
  if (!c.bpred_kind.empty()) o.Set("bpred_kind", JsonValue(c.bpred_kind));
  if (c.bpred_entries != 0) {
    o.Set("bpred_entries",
          JsonValue(static_cast<std::int64_t>(c.bpred_entries)));
  }
  if (c.trigger_occupancy_div != 0) {
    o.Set("trigger_occupancy_div",
          JsonValue(static_cast<std::int64_t>(c.trigger_occupancy_div)));
  }
  if (c.extract_per_cycle >= 0) {
    o.Set("extract_per_cycle",
          JsonValue(static_cast<std::int64_t>(c.extract_per_cycle)));
  }
  if (!c.drain_policy.empty()) {
    o.Set("drain_policy", JsonValue(c.drain_policy));
  }
  if (c.chaining_trigger) o.Set("chaining_trigger", JsonValue(true));
  if (c.stride_prefetch) o.Set("stride_prefetch", JsonValue(true));
  if (c.stride_degree != 0) {
    o.Set("stride_degree",
          JsonValue(static_cast<std::int64_t>(c.stride_degree)));
  }
  if (c.dcycle_budget != 0.0) {
    o.Set("dcycle_budget", JsonValue(c.dcycle_budget));
  }
  if (c.taint) o.Set("taint", JsonValue(true));
  if (c.fence_spec_loads) o.Set("fence_spec_loads", JsonValue(true));
  if (c.cores != 1) {
    o.Set("cores", JsonValue(static_cast<std::int64_t>(c.cores)));
  }
  if (c.xcore_pthreads) o.Set("xcore_pthreads", JsonValue(true));
  return o;
}

}  // namespace

std::vector<JobSpec> ExpandJobs(const Manifest& m) {
  std::vector<JobSpec> jobs;
  jobs.reserve(m.workloads.size() * m.configs.size() + m.extra_jobs.size());
  for (const std::string& w : m.workloads) {
    for (std::size_t c = 0; c < m.configs.size(); ++c) {
      JobSpec j;
      j.workload = w;
      j.config = static_cast<int>(c);
      jobs.push_back(std::move(j));
    }
  }
  jobs.insert(jobs.end(), m.extra_jobs.begin(), m.extra_jobs.end());
  return jobs;
}

std::string JobId(const Manifest& m, const JobSpec& job) {
  if (job.is_mix()) {
    std::string mix;
    for (const std::string& w : job.workloads) {
      if (!mix.empty()) mix += "+";
      mix += w;
    }
    return mix + "/" + m.configs[job.config].label;
  }
  return job.workload + "/" + m.configs[job.config].label;
}

bool ParseManifest(const std::string& text, Manifest* out,
                   std::string* error) {
  JsonValue doc;
  std::string parse_error;
  if (!telemetry::JsonParse(text, &doc, &parse_error)) {
    if (error != nullptr) *error = "not valid JSON: " + parse_error;
    return false;
  }

  Ctx ctx;
  Manifest m;
  if (ctx.Object(doc, "(top level)") == nullptr) {
    *error = ctx.error();
    return false;
  }
  ctx.CheckKeys(doc, "", kTopKeys);

  const std::int64_t version =
      ctx.Int(doc, "", "manifest_version", -1);
  if (!ctx.failed() && version != kManifestVersion) {
    ctx.Fail("manifest_version",
             "missing or unsupported (want " +
                 std::to_string(kManifestVersion) + ")");
  }
  m.name = ctx.Str(doc, "", "name");
  if (!ctx.failed() && m.name.empty()) ctx.Fail("name", "missing or empty");

  if (const JsonValue* d = doc.Find("defaults"); d != nullptr) {
    if (ctx.Object(*d, "defaults") != nullptr) {
      ParseDefaults(ctx, *d, &m.defaults);
    }
  }

  if (const JsonValue* w = doc.Find("workloads"); w != nullptr) {
    if (!ctx.failed() && w->kind() != JsonValue::Kind::kArray) {
      ctx.Fail("workloads", "expected an array");
    } else {
      for (std::size_t i = 0; i < w->items().size(); ++i) {
        const JsonValue& item = w->items()[i];
        if (item.kind() != JsonValue::Kind::kString) {
          ctx.Fail(Elem("workloads", i), "expected a workload name string");
          break;
        }
        m.workloads.push_back(item.AsString());
      }
    }
  }

  if (const JsonValue* cs = doc.Find("configs"); cs != nullptr) {
    if (!ctx.failed() && cs->kind() != JsonValue::Kind::kArray) {
      ctx.Fail("configs", "expected an array");
    } else {
      for (std::size_t i = 0; i < cs->items().size(); ++i) {
        const std::string path = Elem("configs", i);
        if (ctx.Object(cs->items()[i], path) == nullptr) break;
        ConfigSpec c;
        ParseConfig(ctx, cs->items()[i], path, &c);
        if (ctx.failed()) break;
        for (const ConfigSpec& prev : m.configs) {
          if (prev.label == c.label) {
            ctx.Fail(path + ".label", "duplicate label '" + c.label + "'");
            break;
          }
        }
        m.configs.push_back(std::move(c));
      }
    }
  }
  if (!ctx.failed() && m.configs.empty()) {
    ctx.Fail("configs", "a manifest needs at least one config");
  }
  // Matrix jobs are single-workload, so a CMP config can only ever be
  // used by explicit mix jobs; crossing it with the workload list would
  // produce N invalid jobs.
  if (!ctx.failed() && !m.workloads.empty()) {
    for (std::size_t i = 0; i < m.configs.size(); ++i) {
      if (m.configs[i].cores > 1) {
        ctx.Fail(Elem("configs", i) + ".cores",
                 "a multi-core config cannot join the workload matrix; "
                 "reference it from explicit 'jobs' mixes instead");
        break;
      }
    }
  }

  if (const JsonValue* js = doc.Find("jobs"); js != nullptr) {
    if (!ctx.failed() && js->kind() != JsonValue::Kind::kArray) {
      ctx.Fail("jobs", "expected an array");
    } else {
      for (std::size_t i = 0; i < js->items().size(); ++i) {
        const std::string path = Elem("jobs", i);
        if (ctx.Object(js->items()[i], path) == nullptr) break;
        JobSpec j;
        ParseJob(ctx, js->items()[i], path, m, &j);
        if (ctx.failed()) break;
        m.extra_jobs.push_back(std::move(j));
      }
    }
  }
  if (!ctx.failed() && m.workloads.empty() && m.extra_jobs.empty()) {
    ctx.Fail("workloads", "manifest declares no jobs (empty matrix, no "
                          "explicit jobs)");
  }

  if (const JsonValue* ds = doc.Find("derived"); ds != nullptr) {
    if (!ctx.failed() && ds->kind() != JsonValue::Kind::kArray) {
      ctx.Fail("derived", "expected an array");
    } else {
      for (std::size_t i = 0; i < ds->items().size(); ++i) {
        const std::string path = Elem("derived", i);
        if (ctx.Object(ds->items()[i], path) == nullptr) break;
        DerivedSpec d;
        ParseDerived(ctx, ds->items()[i], path, m, &d);
        if (ctx.failed()) break;
        m.derived.push_back(std::move(d));
      }
    }
  }
  // Last, so every structural diagnostic above fires first.
  if (!ctx.failed()) CheckWorkloadNames(ctx, m);

  if (ctx.failed()) {
    if (error != nullptr) *error = ctx.error();
    return false;
  }
  *out = std::move(m);
  return true;
}

bool LoadManifestFile(const std::string& path, Manifest* out,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!ParseManifest(buf.str(), out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

telemetry::JsonValue ManifestToJson(const Manifest& m) {
  JsonValue doc = JsonValue::Object();
  doc.Set("manifest_version", JsonValue(kManifestVersion));
  doc.Set("name", JsonValue(m.name));
  doc.Set("defaults", DefaultsToJson(m.defaults));

  JsonValue workloads = JsonValue::Array();
  for (const std::string& w : m.workloads) workloads.Append(JsonValue(w));
  doc.Set("workloads", std::move(workloads));

  JsonValue configs = JsonValue::Array();
  for (const ConfigSpec& c : m.configs) configs.Append(ConfigToJson(c));
  doc.Set("configs", std::move(configs));

  if (!m.extra_jobs.empty()) {
    JsonValue jobs = JsonValue::Array();
    for (const JobSpec& j : m.extra_jobs) {
      JsonValue o = JsonValue::Object();
      if (j.is_mix()) {
        JsonValue ws = JsonValue::Array();
        for (const std::string& w : j.workloads) ws.Append(JsonValue(w));
        o.Set("workloads", std::move(ws));
      } else {
        o.Set("workload", JsonValue(j.workload));
      }
      o.Set("config", JsonValue(m.configs[j.config].label));
      if (j.debug_hang) o.Set("debug_hang", JsonValue(true));
      if (j.timeout_ms != 0) o.Set("timeout_ms", JsonValue(j.timeout_ms));
      if (j.max_retries >= 0) {
        o.Set("max_retries",
              JsonValue(static_cast<std::int64_t>(j.max_retries)));
      }
      jobs.Append(std::move(o));
    }
    doc.Set("jobs", std::move(jobs));
  }

  if (!m.derived.empty()) {
    JsonValue derived = JsonValue::Array();
    for (const DerivedSpec& d : m.derived) {
      JsonValue o = JsonValue::Object();
      o.Set("name", JsonValue(d.name));
      o.Set("op", JsonValue(d.op));
      o.Set("metric", JsonValue(d.metric));
      o.Set("num", JsonValue(d.num));
      o.Set("den", JsonValue(d.den));
      derived.Append(std::move(o));
    }
    doc.Set("derived", std::move(derived));
  }
  return doc;
}

CoreConfig MakeCoreConfig(const ConfigSpec& c) {
  CoreConfig cfg = c.spear ? SpearCoreConfig(c.ifq, c.separate_fu)
                           : BaselineConfig(c.ifq);
  if (c.mem_latency != 0) cfg.mem.mem_latency = c.mem_latency;
  if (c.l2_latency != 0) cfg.mem.l2_latency = c.l2_latency;
  if (c.bpred_kind == "gshare") {
    cfg.bpred.kind = BpredKind::kGshare;
  } else if (c.bpred_kind == "static_btfn") {
    cfg.bpred.kind = BpredKind::kStaticBtfn;
  } else if (c.bpred_kind == "always_taken") {
    cfg.bpred.kind = BpredKind::kAlwaysTaken;
  } else if (c.bpred_kind == "bimodal" || c.bpred_kind.empty()) {
    cfg.bpred.kind = BpredKind::kBimodal;
  }
  if (c.bpred_entries != 0) cfg.bpred.table_entries = c.bpred_entries;
  if (c.trigger_occupancy_div != 0) {
    cfg.spear.trigger_occupancy_div = c.trigger_occupancy_div;
  }
  if (c.extract_per_cycle >= 0) {
    cfg.spear.extract_per_cycle =
        static_cast<std::uint32_t>(c.extract_per_cycle);
  }
  if (c.drain_policy == "drain_to_trigger") {
    cfg.spear.drain_policy = TriggerDrainPolicy::kDrainToTrigger;
  } else if (c.drain_policy == "stall_dispatch") {
    cfg.spear.drain_policy = TriggerDrainPolicy::kStallDispatch;
  }
  cfg.spear.chaining_trigger = c.chaining_trigger;
  cfg.stride_prefetch.enabled = c.stride_prefetch;
  if (c.stride_degree != 0) cfg.stride_prefetch.degree = c.stride_degree;
  cfg.taint_observe = c.taint;
  cfg.fence_spec_loads = c.fence_spec_loads;
  cfg.spear.xcore_pthreads = c.xcore_pthreads;
  return cfg;
}

EvalOptions MakeEvalOptions(const ManifestDefaults& d, const ConfigSpec& c) {
  EvalOptions opt;
  opt.sim_instrs = d.sim_instrs;
  opt.max_cycles = d.max_cycles;
  opt.ref_seed = d.ref_seed;
  opt.profile_seed = d.profile_seed;
  opt.scale = d.scale;
  if (c.dcycle_budget != 0.0) {
    opt.compiler.slicer.dcycle_budget = c.dcycle_budget;
  }
  return opt;
}

std::string ResolveBinary(const ConfigSpec& c) {
  if (!c.binary.empty()) return c.binary;
  return c.spear ? "annotated" : "plain";
}

}  // namespace spear::runner
