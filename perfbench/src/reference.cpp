// Brute-force reference for the benchmark's correctness checks.
//
// For every function the reference interprets the program over every
// combination of its `__input` domains (testgen::Interpreter, the
// repository's reference semantics) and records which control paths run.
// It then takes the structural partition and path enumeration at the
// workload's bound (cfg/core: pure graph algorithms, no solving) and asks,
// per segment, which enumerated paths some input traverses. The expected
// timing model follows: feasible = traversed paths, infeasible = the
// rest, BCET/WCET = cheapest/dearest traversed path. BMC, slicing,
// sessions and the cache never contribute, so a wrong verdict from any of
// them shows up as a mismatch.
#include <algorithm>
#include <iostream>
#include <set>
#include <sstream>

#include "bench.h"
#include "cfg/paths.h"
#include "cfg/structure.h"
#include "core/partition.h"
#include "minic/ast.h"
#include "minic/frontend.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "testgen/interp.h"

namespace tmgbench {

namespace {

using tmg::cfg::BlockId;

/// Brute force stops above this many input combinations (the paper
/// examples with two 16-bit parameters have 2^32).
constexpr std::uint64_t kMaxCombos = std::uint64_t{1} << 19;

/// Expected (feasible, infeasible, bcet, wcet) of one segment.
struct SegExpect {
  std::int64_t feasible = 0, infeasible = 0, bcet = 0, wcet = 0;
};

/// One segment's enumerated paths and which of them some input traverses.
struct SegPaths {
  std::vector<std::vector<BlockId>> paths;
  std::vector<bool> traversed;
};

struct FnRef {
  std::string name;
  std::vector<SegPaths> segs;
};

/// Every input combination of `fn`, in Program::inputs_of order; empty
/// when the cross product exceeds kMaxCombos.
std::vector<std::vector<std::int64_t>> input_combos(
    const tmg::minic::Program& prog, const tmg::minic::FunctionDef& fn) {
  const std::vector<tmg::minic::Symbol*> inputs = prog.inputs_of(fn);
  std::uint64_t product = 1;
  for (const tmg::minic::Symbol* s : inputs) {
    const auto [lo, hi] = s->value_range();
    product *= static_cast<std::uint64_t>(hi - lo + 1);
    if (product > kMaxCombos) return {};
  }
  std::vector<std::vector<std::int64_t>> out;
  std::vector<std::int64_t> cur;
  for (const tmg::minic::Symbol* s : inputs)
    cur.push_back(s->value_range().first);
  for (;;) {
    out.push_back(cur);
    std::size_t i = 0;
    for (; i < inputs.size(); ++i) {
      if (++cur[i] <= inputs[i]->value_range().second) break;
      cur[i] = inputs[i]->value_range().first;
    }
    if (i == inputs.size()) break;
  }
  return out;
}

/// Maximal runs of `trace` that enter the segment at its entry block and
/// stay inside it: the segment traversals one execution performs.
void collect_traversals(const std::vector<BlockId>& trace, BlockId entry,
                        const std::vector<bool>& in_seg,
                        std::set<std::vector<BlockId>>& out) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] != entry || (i > 0 && in_seg[trace[i - 1]])) continue;
    std::size_t j = i;
    while (j < trace.size() && in_seg[trace[j]]) ++j;
    out.insert(std::vector<BlockId>(trace.begin() + static_cast<long>(i),
                                    trace.begin() + static_cast<long>(j)));
  }
}

/// Brute-forces one function. Returns false (with `why`) when the input
/// domain is too large or a run does not terminate.
bool brute_force(const tmg::minic::Program& prog,
                 const tmg::cfg::FunctionCfg& f, const Options& o, FnRef& out,
                 std::string& why) {
  const std::vector<std::vector<std::int64_t>> combos =
      input_combos(prog, *f.fn);
  if (combos.empty()) {
    why = "input domain of " + f.fn->name + " exceeds brute-force budget";
    return false;
  }
  const tmg::cfg::PathAnalysis pa(f);
  const tmg::core::Partition part = tmg::core::partition_function(
      f, pa, tmg::core::PartitionOptions{o.bound});
  std::set<std::vector<BlockId>> traces;
  tmg::testgen::Interpreter interp(prog, f);
  for (const auto& c : combos) {
    tmg::testgen::ExecTrace t = interp.run(c);
    if (!t.terminated) {
      why = "a run of " + f.fn->name + " did not terminate";
      return false;
    }
    traces.insert(std::move(t.blocks));
  }
  out.name = f.fn->name;
  for (const tmg::core::Segment& seg : part.segments) {
    SegPaths sp;
    std::vector<bool> in_seg(f.graph.size(), false);
    BlockId entry = seg.block;
    if (seg.kind == tmg::core::SegmentKind::Block) {
      sp.paths.push_back({seg.block});
      in_seg[seg.block] = true;
    } else {
      std::vector<tmg::cfg::PathSpec> specs;
      entry = tmg::cfg::arm_entry_block(*seg.region);
      if (!tmg::cfg::enumerate_paths(f, entry, seg.blocks, o.max_paths,
                                     specs)) {
        why = "path enumeration of " + f.fn->name + " truncated";
        return false;
      }
      for (tmg::cfg::PathSpec& s : specs) sp.paths.push_back(std::move(s.blocks));
      for (const BlockId b : seg.blocks) in_seg[b] = true;
    }
    std::set<std::vector<BlockId>> runs;
    for (const auto& t : traces) collect_traversals(t, entry, in_seg, runs);
    for (const auto& p : sp.paths) {
      // A block segment is traversed when its block runs at all.
      sp.traversed.push_back(runs.contains(p));
    }
    out.segs.push_back(std::move(sp));
  }
  return true;
}

/// The cost model tmg documents (driver/pipeline.h), priced here rather
/// than through tmg's own CostModel so that a pricing bug shows: one cycle
/// per statement, one per decision, and each extern call inside a
/// statement at its `__cost(N)`, or 10 when it has none.
constexpr std::int64_t kStmtCost = 1, kDecisionCost = 1, kDefaultCallCost = 10;

std::int64_t call_cost(const tmg::minic::Expr& e) {
  std::int64_t total = 0;
  if (e.kind == tmg::minic::ExprKind::Call && e.sym != nullptr)
    total += e.sym->call_cost > 0 ? e.sym->call_cost : kDefaultCallCost;
  for (const auto& child : e.children)
    if (child) total += call_cost(*child);
  return total;
}

std::int64_t block_cost(const tmg::cfg::BasicBlock& b) {
  std::int64_t total = b.is_decision() ? kDecisionCost : 0;
  for (const tmg::minic::Stmt* s : b.stmts) {
    total += kStmtCost;
    if (s->cond) total += call_cost(*s->cond);
    for (const auto& child : s->children)
      if (child) total += call_cost(*child);
  }
  return total;
}

/// Prices every segment of `ref` with the block costs of `f` (the same
/// structure, possibly other `__cost` annotations).
std::vector<SegExpect> price(const FnRef& ref, const tmg::cfg::FunctionCfg& f) {
  std::vector<SegExpect> out;
  for (const SegPaths& sp : ref.segs) {
    SegExpect e;
    bool any = false;
    for (std::size_t p = 0; p < sp.paths.size(); ++p) {
      if (!sp.traversed[p]) {
        ++e.infeasible;
        continue;
      }
      std::int64_t cost = 0;
      for (const BlockId b : sp.paths[p]) cost += block_cost(f.graph.block(b));
      e.bcet = any ? std::min(e.bcet, cost) : cost;
      e.wcet = any ? std::max(e.wcet, cost) : cost;
      any = true;
      ++e.feasible;
    }
    out.push_back(e);
  }
  return out;
}

struct Compiled {
  std::unique_ptr<tmg::minic::Program> program;
  std::vector<std::unique_ptr<tmg::cfg::FunctionCfg>> cfgs;
};

bool compile(const std::string& source, Compiled& c, std::string& why) {
  tmg::DiagnosticEngine diags;
  c.program = tmg::minic::compile(
      source, diags, tmg::minic::SemaOptions{.warn_unbounded_loops = false});
  if (!c.program) {
    why = "does not compile: " + diags.str();
    return false;
  }
  for (const auto& fn : c.program->functions)
    c.cfgs.push_back(tmg::cfg::build_cfg(*fn));
  return true;
}

void write_expect(std::ostringstream& os, const std::string& fn,
                  const std::vector<SegExpect>& segs, bool first) {
  os << (first ? "" : ",") << tmg::json_quote(fn) << ":[";
  for (std::size_t i = 0; i < segs.size(); ++i)
    os << (i ? "," : "") << "[" << segs[i].feasible << ","
       << segs[i].infeasible << "," << segs[i].bcet << "," << segs[i].wcet
       << "]";
  os << "]";
}

/// Reference entry of one source: {"functions":{fn:[[f,i,b,w],...]}} or
/// {"unchecked": reason}.
std::string brute_force_entry(const std::string& source, const Options& o) {
  Compiled c;
  std::string why;
  std::ostringstream os;
  if (!compile(source, c, why))
    return "{\"unchecked\":" + tmg::json_quote(why) + "}";
  os << "{\"functions\":{";
  for (std::size_t i = 0; i < c.cfgs.size(); ++i) {
    FnRef ref;
    if (!brute_force(*c.program, *c.cfgs[i], o, ref, why))
      return "{\"unchecked\":" + tmg::json_quote(why) + "}";
    write_expect(os, ref.name, price(ref, *c.cfgs[i]), i == 0);
  }
  os << "}}";
  return os.str();
}

/// Same block graph (block count and every successor edge).
bool same_structure(const tmg::cfg::Cfg& a, const tmg::cfg::Cfg& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.block(static_cast<BlockId>(i)).succs;
    const auto& sb = b.block(static_cast<BlockId>(i)).succs;
    if (sa.size() != sb.size()) return false;
    for (std::size_t k = 0; k < sa.size(); ++k)
      if (sa[k].to != sb[k].to) return false;
  }
  return true;
}

/// Serve misses: each edit only re-prices `__cost` annotations, so the
/// paths its base example traverses are brute-forced once and re-priced
/// with the edited program's block costs (after checking the edit left
/// the block graph unchanged).
bool miss_entries(const fs::path& dir, const Manifest& m,
                  std::ostringstream& os) {
  std::map<std::string, std::pair<Compiled, std::vector<FnRef>>> bases;
  std::map<std::string, std::string> base_why;
  // Miss sources are only on the wire: one request per line.
  std::vector<std::string> sources;
  {
    std::istringstream lines(read_file(dir / "misses.jsonl"));
    for (std::string line; std::getline(lines, line);) {
      const auto req = tmg::json_parse(line);
      if (!req || req->get("files").items().empty()) {
        std::cerr << "tmgbench: bad line in misses.jsonl\n";
        return false;
      }
      sources.push_back(req->get("files").items()[0].get("source").as_string());
    }
  }
  if (sources.size() != m.misses.size()) {
    std::cerr << "tmgbench: misses.jsonl does not match the manifest\n";
    return false;
  }
  for (std::size_t i = 0; i < m.misses.size(); ++i) {
    const std::string& base = m.miss_base[i];
    const std::string& src = sources[i];
    if (!bases.contains(base) && !base_why.contains(base)) {
      // The first edit of a base stands in for it: costs do not change
      // which paths run.
      auto& [c, refs] = bases[base];
      std::string why;
      bool ok = compile(src, c, why);
      for (std::size_t f = 0; ok && f < c.cfgs.size(); ++f) {
        refs.emplace_back();
        ok = brute_force(*c.program, *c.cfgs[f], m.options, refs.back(), why);
      }
      if (!ok) {
        base_why[base] = why;
        bases.erase(base);
      }
    }
    os << (i ? "," : "") << tmg::json_quote(m.misses[i]) << ":";
    if (base_why.contains(base)) {
      os << "{\"unchecked\":" << tmg::json_quote(base_why[base]) << "}";
      continue;
    }
    Compiled edit;
    std::string why;
    const auto& [bc, refs] = bases.at(base);
    if (!compile(src, edit, why) || edit.cfgs.size() != bc.cfgs.size()) {
      os << "{\"unchecked\":" << tmg::json_quote("edit broke " + base) << "}";
      continue;
    }
    os << "{\"functions\":{";
    for (std::size_t f = 0; f < edit.cfgs.size(); ++f) {
      if (!same_structure(edit.cfgs[f]->graph, bc.cfgs[f]->graph)) {
        std::cerr << "tmgbench: edit changed the CFG of " << base << "\n";
        return false;
      }
      write_expect(os, refs[f].name, price(refs[f], *edit.cfgs[f]), f == 0);
    }
    os << "}}";
  }
  return true;
}

}  // namespace

bool reference(const fs::path& dir) {
  Manifest m;
  if (!read_manifest(dir, m)) return false;
  std::ostringstream os;
  os << "{\"files\":{";
  for (std::size_t i = 0; i < m.files.size(); ++i) {
    os << (i ? "," : "") << tmg::json_quote(m.files[i]) << ":";
    if (m.workload == "deep-struct") {
      // Closed-form counts from the generator: [paths, segments].
      os << "{\"closed_form\":{";
      bool first = true;
      for (const auto& [fn, counts] : m.closed_form[m.files[i]]) {
        os << (first ? "" : ",") << tmg::json_quote(fn) << ":["
           << counts.first << "," << counts.second << "]";
        first = false;
      }
      os << "}}";
    } else {
      os << brute_force_entry(read_file(dir / "files" / m.files[i]),
                              m.options);
    }
  }
  os << "},\"misses\":{";
  if (!miss_entries(dir, m, os)) return false;
  os << "}}\n";
  return write_file(dir / "reference.json", os.str());
}

}  // namespace tmgbench
