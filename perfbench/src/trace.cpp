// Traced per-layer run. The harness calls each module's public functions
// itself, one file at a time on this thread, and records a span around
// every call: name, layer, start, end and parent, kept in memory and
// folded into per-layer self times when the run ends. Counts come from
// the result types returned at the same boundaries. Nothing inside src/
// is instrumented, so time a module spends inside another module's call
// (SAT inside bmc::Session::solve, everything inside Pipeline::run) stays
// with the outer span; README.md lists what that hides.
//
// The same loop runs in turn with spans off and on; the difference of
// the medians is the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench.h"
#include "bmc/bmc.h"
#include "bmc/session.h"
#include "cfg/paths.h"
#include "cfg/structure.h"
#include "core/partition.h"
#include "driver/cache.h"
#include "driver/pipeline.h"
#include "driver/report.h"
#include "driver/serve.h"
#include "minic/frontend.h"
#include "opt/passes.h"
#include "opt/slice.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "testgen/interp.h"
#include "tsys/translate.h"

namespace tmgbench {

namespace {

using Clock = std::chrono::steady_clock;
using tmg::cfg::BlockId;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// `probe` marks a call the workload's own tmg run does not make (the
/// passes without --opt, whole-function slices, queries on a --no-bmc
/// workload, the fresh-solver entry point): timed for its layer metric,
/// left out of the self-time shares.
struct Span {
  const char* name;
  const char* layer;
  double start, end;
  int parent;
  bool probe;
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  int begin(const char* name, const char* layer, bool probe) {
    if (!on_) return -1;
    spans_.push_back({name, layer, now(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), probe});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: a span's duration minus its children's.
  /// Probe spans count as children of their parent but are not added to
  /// any layer.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (!spans_[i].probe)
        out[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }
  /// Durations of every span called `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name) out.push_back(s.end - s.start);
    return out;
  }

 private:
  double now() const { return secs(t0_, Clock::now()); }
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, const char* layer, bool probe = false)
      : t_(t), id_(t.begin(name, layer, probe)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Deepest unroll the traced run queries on a --no-bmc workload.
constexpr std::uint32_t kShallowDepth = 64;

/// Counts gathered at the call boundaries (one traced pass).
struct Counts {
  std::uint64_t src_bytes = 0, paths = 0, segments = 0, state_bits = 0,
                transitions = 0, unroll_depth = 0,
                bits_removed = 0, slice_vars_dropped = 0, queries = 0,
                cnf_vars = 0, cnf_clauses = 0, max_cnf_clauses = 0,
                decisions = 0, propagations = 0, conflicts = 0, runs = 0,
                decided = 0, enumerated = 0;
};

tmg::driver::PipelineOptions pipeline_options(const Options& o) {
  tmg::driver::PipelineOptions p;
  p.path_bound = o.bound;
  p.max_paths_per_segment = o.max_paths;
  p.run_bmc = o.bmc;
  if (o.opt) p.opt_passes = tmg::opt::all_passes();
  p.jobs = 1;
  return p;
}

/// Decisions to keep in the slice of an anchored region query: those
/// inside the region and those that can reach any of its blocks (the
/// same rule the pipeline's region slices follow).
std::vector<bool> region_keep(const tmg::cfg::Cfg& g,
                              const std::vector<BlockId>& seg_blocks) {
  const std::size_t nb = g.size();
  std::vector<bool> in_seg(nb, false), keep(nb, false);
  for (const BlockId b : seg_blocks) in_seg[b] = true;
  for (const tmg::cfg::BasicBlock& d : g.blocks()) {
    if (!d.is_decision()) continue;
    if (in_seg[d.id]) {
      keep[d.id] = true;
      continue;
    }
    std::vector<bool> seen(nb, false);
    std::vector<BlockId> work{d.id};
    while (!work.empty() && !keep[d.id]) {
      const BlockId cur = work.back();
      work.pop_back();
      for (const tmg::cfg::Edge& e : g.block(cur).succs) {
        if (seen[e.to]) continue;
        seen[e.to] = true;
        if (in_seg[e.to]) keep[d.id] = true;
        work.push_back(e.to);
      }
    }
  }
  return keep;
}

/// Interpreter inputs (Program::inputs_of order) from a full-system
/// witness, through the symbol -> variable map after the passes.
std::vector<std::int64_t> interp_inputs(
    const tmg::minic::Program& prog, const tmg::minic::FunctionDef& fn,
    const tmg::tsys::TranslationResult& tr,
    const std::vector<tmg::tsys::VarId>& var_map,
    const std::vector<std::int64_t>& witness) {
  std::vector<std::int64_t> out;
  for (const tmg::minic::Symbol* s : prog.inputs_of(fn)) {
    tmg::tsys::VarId v = tr.var_of_symbol[s->id];
    if (v != tmg::tsys::kNoVar && !var_map.empty()) v = var_map[v];
    out.push_back(v != tmg::tsys::kNoVar && v < witness.size() ? witness[v]
                                                               : 0);
  }
  return out;
}

/// One pass over the corpus through the module boundaries: front half,
/// per-path queries, witness replays. `depths` holds the unroll depth
/// Pipeline::run chose per (file, function).
void module_pass(const std::vector<std::string>& sources, const Options& o,
                 const std::vector<std::vector<std::uint32_t>>& depths,
                 Tracer& tr, Counts& c) {
  for (std::size_t fi = 0; fi < sources.size(); ++fi) {
    Scope file(tr, "harness.file", "harness");
    const std::string& src = sources[fi];
    c.src_bytes += src.size();
    tmg::DiagnosticEngine diags;
    std::unique_ptr<tmg::minic::Program> prog;
    {
      Scope s(tr, "minic.compile", "minic");
      prog = tmg::minic::compile(
          src, diags, tmg::minic::SemaOptions{.warn_unbounded_loops = false});
    }
    if (!prog) continue;
    for (std::size_t fn_i = 0; fn_i < prog->functions.size(); ++fn_i) {
      const tmg::minic::FunctionDef& fn = *prog->functions[fn_i];
      std::unique_ptr<tmg::cfg::FunctionCfg> f;
      std::unique_ptr<tmg::cfg::PathAnalysis> pa;
      {
        Scope s(tr, "cfg.build_cfg", "cfg");
        f = tmg::cfg::build_cfg(fn);
        pa = std::make_unique<tmg::cfg::PathAnalysis>(*f);
      }
      tmg::core::Partition part;
      {
        Scope s(tr, "core.partition_function", "core");
        part = tmg::core::partition_function(
            *f, *pa, tmg::core::PartitionOptions{o.bound});
      }
      std::unique_ptr<tmg::tsys::TranslationResult> ts;
      {
        Scope s(tr, "tsys.translate", "tsys");
        ts = tmg::tsys::translate(*prog, *f, diags);
      }
      if (!ts) continue;
      c.segments += part.segments.size();
      // The passes run on every workload, so their cost is measured
      // everywhere; without --opt they run on a second translation (made
      // outside the spans) and the queries keep the unoptimised system.
      std::vector<tmg::tsys::VarId> var_map;
      {
        std::unique_ptr<tmg::tsys::TranslationResult> spare =
            o.opt ? nullptr : tmg::tsys::translate(*prog, *f, diags);
        tmg::tsys::TransitionSystem& target = spare ? spare->ts : ts->ts;
        const int before = target.state_bits();
        tmg::opt::OptResult r;
        {
          Scope s(tr, "opt.run_passes_mapped", "opt", !o.opt);
          r = tmg::opt::run_passes_mapped(target, tmg::opt::all_passes());
        }
        c.bits_removed += static_cast<std::uint64_t>(
            std::max(0, before - target.state_bits()));
        if (o.opt) var_map = std::move(r.var_map);
      }
      c.state_bits += static_cast<std::uint64_t>(ts->ts.state_bits());
      c.transitions += ts->ts.transitions.size();
      const std::uint32_t depth =
          fi < depths.size() && fn_i < depths[fi].size() ? depths[fi][fn_i] : 0;
      c.unroll_depth += depth;

      tmg::bmc::BmcOptions bo;
      bo.max_steps = depth;
      bo.runs_terminate = true;
      std::unique_ptr<tmg::bmc::Session> full_session;
      tmg::testgen::Interpreter interp(*prog, *f);
      for (const tmg::core::Segment& seg : part.segments) {
        if (seg.kind != tmg::core::SegmentKind::Region) continue;
        std::vector<tmg::cfg::PathSpec> specs;
        {
          Scope s(tr, "cfg.enumerate_paths", "cfg");
          tmg::cfg::enumerate_paths(*f, tmg::cfg::arm_entry_block(*seg.region),
                                    seg.blocks, o.max_paths, specs);
        }
        c.paths += specs.size();
        // One slice per region (path-independent), built on every
        // workload so its cost is measured everywhere. Only anchored
        // queries use it: the pipeline never slices whole-function
        // schedules.
        std::unique_ptr<tmg::opt::SegmentSlice> slice;
        const bool query = depth > 0 && (o.bmc || depth <= kShallowDepth);
        {
          Scope s(tr, "opt.build_slice", "opt", seg.whole_function || !o.bmc);
          slice = std::make_unique<tmg::opt::SegmentSlice>(
              tmg::opt::build_slice(ts->ts, region_keep(f->graph, seg.blocks)));
        }
        c.slice_vars_dropped += slice->dropped_vars;
        if (slice->trivial || seg.whole_function) slice.reset();
        // A --no-bmc workload (deep-struct) still queries its shallow
        // functions, so bmc, sat and testgen get a measured time there.
        if (!query) continue;
        std::unique_ptr<tmg::bmc::Session> slice_session;
        for (const tmg::cfg::PathSpec& spec : specs) {
          if (spec.choices.empty()) continue;
          tmg::bmc::BmcQuery q;
          q.schedule = tmg::bmc::DecisionSchedule{spec.choices,
                                                  !seg.whole_function};
          tmg::bmc::BmcResult r;
          {
            Scope s(tr, "bmc.session_solve", "bmc", !o.bmc);
            if (slice) {
              if (!slice_session)
                slice_session =
                    std::make_unique<tmg::bmc::Session>(slice->ts, bo);
              r = slice_session->solve(q);
            } else {
              if (!full_session)
                full_session = std::make_unique<tmg::bmc::Session>(ts->ts, bo);
              r = full_session->solve(q);
            }
          }
          ++c.queries;
          c.cnf_vars += r.cnf_vars;
          c.cnf_clauses += r.cnf_clauses;
          c.max_cnf_clauses = std::max(c.max_cnf_clauses, r.cnf_clauses);
          c.decisions += r.solver_decisions;
          c.propagations += r.solver_propagations;
          c.conflicts += r.solver_conflicts;
          if (r.status != tmg::bmc::BmcStatus::TestData ||
              r.initial_values.empty())
            continue;
          const std::vector<std::int64_t> w =
              slice ? tmg::opt::expand_witness(ts->ts, *slice, r.initial_values)
                    : r.initial_values;
          const std::vector<std::int64_t> in =
              interp_inputs(*prog, fn, *ts, var_map, w);
          Scope s(tr, "testgen.run", "testgen", !o.bmc);
          interp.run(in);
          ++c.runs;
        }
        // The fresh-solver entry point, once per function: what every
        // query costs without a warm session.
        if (!specs.empty() && !specs.front().choices.empty() &&
            seg.whole_function) {
          tmg::bmc::BmcQuery q;
          q.schedule = tmg::bmc::DecisionSchedule{specs.front().choices, false};
          Scope s(tr, "bmc.solve", "bmc", true);
          (void)tmg::bmc::solve(ts->ts, q, bo);
        }
      }
    }
  }
}

void put(std::ostringstream& os, bool& first, const std::string& name,
         double value, const char* unit) {
  os << (first ? "" : ",") << tmg::json_quote(name)
     << ":{\"value\":" << tmg::json_double(value)
     << ",\"unit\":" << tmg::json_quote(unit) << "}";
  first = false;
}

}  // namespace

bool traced_run(const fs::path& dir, double seconds) {
  Manifest m;
  if (!read_manifest(dir, m)) return false;
  std::vector<std::string> sources, names;
  for (const std::string& f : m.files) {
    sources.push_back(read_file(dir / "files" / f));
    names.push_back(f);
  }
  const tmg::driver::PipelineOptions popts = pipeline_options(m.options);
  Tracer tr(true);

  // Whole pipeline, serially per file (the engine speed-up's numerator;
  // also the unroll depths the harness queries use), then the batch on
  // two workers.
  std::vector<std::vector<std::uint32_t>> depths;
  Counts c;
  std::vector<tmg::driver::PipelineResult> results;
  for (const std::string& src : sources) {
    Scope s(tr, "driver.Pipeline::run", "driver");
    results.push_back(tmg::driver::Pipeline(popts).run(src));
  }
  for (const auto& r : results) {
    depths.emplace_back();
    for (const auto& ft : r.functions) {
      depths.back().push_back(ft.unroll_depth);
      for (const auto& st : ft.segments) {
        c.decided += st.feasible + st.infeasible;
        c.enumerated += st.feasible + st.infeasible + st.unknown;
      }
    }
  }
  tmg::driver::PipelineOptions bopts = popts;
  bopts.jobs = 2;
  const double cpu0 = cpu_now();
  const Clock::time_point b0 = Clock::now();
  tmg::driver::BatchResult batch;
  {
    Scope s(tr, "driver.run_batch", "engine");
    batch = tmg::driver::run_batch(sources, names, bopts);
  }
  const double batch_wall = secs(b0, Clock::now());
  const double batch_cpu = cpu_now() - cpu0;
  {
    std::ostringstream sink;
    Scope s(tr, "driver.render_batch_report", "driver");
    tmg::driver::render_batch_report(batch.files, bopts,
                                     tmg::driver::ReportFormat::Json, false,
                                     sink);
  }

  // Module boundaries: one warm-up pass, then untraced and traced passes
  // in turn until half of the time is used (at least one of each).
  Tracer off(false);
  Counts scratch;
  module_pass(sources, m.options, depths, off, scratch);
  Tracer mod(true);
  std::vector<double> untraced, traced;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds / 2));
  do {
    Clock::time_point t0 = Clock::now();
    module_pass(sources, m.options, depths, off, scratch);
    untraced.push_back(secs(t0, Clock::now()));
    Counts pass;
    t0 = Clock::now();
    module_pass(sources, m.options, depths, mod, pass);
    traced.push_back(secs(t0, Clock::now()));
    if (traced.size() == 1) {
      pass.decided = c.decided;
      pass.enumerated = c.enumerated;
      c = pass;
    }
  } while (Clock::now() < deadline);
  const double passes = static_cast<double>(traced.size());

  // Cache and serve: a fresh cache directory, one miss + store + two
  // lookups per file (slow path, then the stat fast path), then the
  // in-process request handler on a hit payload.
  const fs::path cache_dir = dir / "trace_cache";
  std::error_code ec;
  fs::remove_all(cache_dir, ec);
  tmg::driver::ResultCache cache(cache_dir.string(),
                                 tmg::driver::CacheMode::ReadWrite,
                                 std::uint64_t{1} << 30);
  std::ostringstream warn;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    {
      Scope s(tr, "cache.lookup_miss", "cache");
      (void)cache.lookup(sources[i], popts, warn);
    }
    {
      Scope s(tr, "cache.store", "cache");
      cache.store(sources[i], popts, results[i], warn);
    }
    for (int k = 0; k < 2; ++k) {
      Scope s(tr, "cache.lookup_hit", "cache");
      (void)cache.lookup(sources[i], popts, warn);
    }
  }
  const tmg::driver::CacheStats cs = cache.stats();
  // Hit payloads for the live-daemon probe run.py makes next.
  {
    std::ostringstream lines;
    for (std::size_t i = 0; i < std::min<std::size_t>(4, sources.size()); ++i)
      lines << tmg::driver::serialize_serve_request(popts, {names[i]},
                                                    {sources[i]})
            << "\n";
    if (!write_file(dir / "probe.jsonl", lines.str())) return false;
  }
  const std::string hit_payload =
      tmg::driver::serialize_serve_request(popts, {names[0]}, {sources[0]});
  std::uint64_t requests = 0;
  for (int k = 0; k < 200; ++k) {
    bool shutdown = false;
    Scope s(tr, "serve.handle_hit", "serve");
    (void)tmg::driver::handle_serve_request(hit_payload, cache, warn, shutdown);
    ++requests;
  }

  // Report. Module-pass spans are summed over the passes and divided by
  // their number; the pipeline, batch, cache and serve spans ran once.
  const auto total = [&](const char* name) {
    return sum(mod.durations(name)) + sum(tr.durations(name));
  };
  const double t_minic = total("minic.compile") / passes;
  std::ostringstream os;
  bool first = true;
  os << "{";
  put(os, first, "minic.compile_s", t_minic, "s");
  put(os, first, "minic.src_kb_per_s",
      t_minic > 0 ? static_cast<double>(c.src_bytes) / 1024.0 / t_minic : 0,
      "kB/s");
  put(os, first, "cfg.build_s", total("cfg.build_cfg") / passes, "s");
  put(os, first, "cfg.enumerate_s", total("cfg.enumerate_paths") / passes, "s");
  put(os, first, "cfg.paths", static_cast<double>(c.paths), "count");
  put(os, first, "core.partition_s",
      total("core.partition_function") / passes, "s");
  put(os, first, "core.segments", static_cast<double>(c.segments), "count");
  put(os, first, "tsys.translate_s", total("tsys.translate") / passes, "s");
  put(os, first, "tsys.state_bits", static_cast<double>(c.state_bits), "count");
  put(os, first, "tsys.transitions", static_cast<double>(c.transitions),
      "count");
  put(os, first, "tsys.unroll_depth", static_cast<double>(c.unroll_depth),
      "count");
  put(os, first, "opt.passes_s", total("opt.run_passes_mapped") / passes, "s");
  put(os, first, "opt.bits_removed", static_cast<double>(c.bits_removed),
      "count");
  put(os, first, "opt.slice_s", total("opt.build_slice") / passes, "s");
  put(os, first, "opt.slice_vars_dropped",
      static_cast<double>(c.slice_vars_dropped), "count");
  const std::vector<double> q = mod.durations("bmc.session_solve");
  put(os, first, "bmc.queries", static_cast<double>(c.queries), "count");
  put(os, first, "bmc.query_s", sum(q) / passes, "s");
  put(os, first, "bmc.query_p50_ms", median(q) * 1000.0, "ms");
  put(os, first, "bmc.fresh_solve_p50_ms",
      median(mod.durations("bmc.solve")) * 1000.0, "ms");
  put(os, first, "bmc.cnf_vars", static_cast<double>(c.cnf_vars), "count");
  put(os, first, "bmc.cnf_clauses", static_cast<double>(c.cnf_clauses),
      "count");
  put(os, first, "bmc.max_cnf_clauses",
      static_cast<double>(c.max_cnf_clauses), "count");
  put(os, first, "bmc.decided_share",
      c.enumerated ? static_cast<double>(c.decided) /
                         static_cast<double>(c.enumerated)
                   : 0.0,
      "share");
  put(os, first, "sat.decisions", static_cast<double>(c.decisions), "count");
  put(os, first, "sat.propagations", static_cast<double>(c.propagations),
      "count");
  put(os, first, "sat.conflicts", static_cast<double>(c.conflicts), "count");
  put(os, first, "sat.props_per_s",
      sum(q) > 0 ? static_cast<double>(c.propagations) * passes / sum(q) : 0,
      "1/s");
  put(os, first, "testgen.runs", static_cast<double>(c.runs), "count");
  put(os, first, "testgen.run_s", total("testgen.run") / passes, "s");
  const double serial = total("driver.Pipeline::run");
  put(os, first, "engine.speedup", batch_wall > 0 ? serial / batch_wall : 0,
      "ratio");
  put(os, first, "engine.cpu_ratio",
      batch_wall > 0 ? batch_cpu / batch_wall : 0, "ratio");
  put(os, first, "engine.workers_used", batch.workers, "count");
  put(os, first, "driver.pipeline_s", serial, "s");
  put(os, first, "driver.render_s", total("driver.render_batch_report"), "s");
  put(os, first, "cache.lookup_ms",
      median(tr.durations("cache.lookup_hit")) * 1000.0, "ms");
  put(os, first, "cache.lookup_miss_ms",
      median(tr.durations("cache.lookup_miss")) * 1000.0, "ms");
  put(os, first, "cache.store_ms", median(tr.durations("cache.store")) * 1000.0,
      "ms");
  put(os, first, "cache.hits", static_cast<double>(cs.hits), "count");
  put(os, first, "cache.misses", static_cast<double>(cs.misses), "count");
  put(os, first, "cache.fast_hits", static_cast<double>(cs.fast_hits), "count");
  put(os, first, "cache.evictions", static_cast<double>(cs.evictions), "count");
  put(os, first, "serve.handle_hit_ms",
      median(tr.durations("serve.handle_hit")) * 1000.0, "ms");
  put(os, first, "serve.requests", static_cast<double>(requests), "count");
  // Each layer's share of the self time of the workload's own calls in
  // the module passes; the harness's own loop is the "harness" layer.
  // Shares only: a layer a workload never enters reads 0, and the
  // layers' absolute times are the metrics above.
  const auto self = mod.self_by_layer();
  double all = 0;
  for (const auto& [layer, t] : self) all += t;
  for (const char* layer : {"minic", "cfg", "core", "tsys", "opt", "bmc",
                            "testgen", "harness"}) {
    const auto it = self.find(layer);
    const double t = it == self.end() ? 0.0 : it->second;
    put(os, first, std::string("self.") + layer + "_share",
        all > 0 ? t / all : 0, "share");
  }
  const double untraced_med = median(untraced);
  put(os, first, "trace.overhead",
      untraced_med > 0 ? median(traced) / untraced_med - 1.0 : 0, "share");
  put(os, first, "trace.spans",
      static_cast<double>(tr.spans().size() + mod.spans().size()), "count");
  os << "}";
  std::cout << os.str() << "\n";
  return true;
}

}  // namespace tmgbench
