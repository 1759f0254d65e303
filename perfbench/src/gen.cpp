// Seeded input generation for the four workloads. The loop and loop-free
// corpora come from the differential-fuzz generator (tests/fuzz_gen.cpp,
// compiled unchanged into this tool); deep-struct sources and the serve
// miss edits are built here.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <cctype>
#include <sstream>

#include "bench.h"
#include "driver/pipeline.h"
#include "driver/serve.h"
#include "fuzz_gen.h"
#include "support/json.h"
#include "support/rng.h"

namespace tmgbench {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool write_file(const fs::path& p, const std::string& data) {
  std::ofstream out(p, std::ios::binary);
  out << data;
  out.close();
  return static_cast<bool>(out);
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

/// Corpus sizes and generator shapes. The fuzz configurations keep every
/// `__input` cross product brute-forceable (the reference interprets each
/// combination) and every path count under the tmg --max-paths used.
constexpr std::size_t kLoopFiles = 40;
constexpr std::size_t kDagFiles = 360;
constexpr std::size_t kServeHitFiles = 48;
constexpr std::size_t kServeMisses = 80;  // ten blocks of the 8 examples

tmg::fuzz::FuzzConfig loop_config() {
  tmg::fuzz::FuzzConfig c;
  c.max_inputs = 3;
  c.max_locals = 4;
  c.max_depth = 3;
  c.max_stmts = 5;
  c.max_paths = 400;
  c.max_input_product = 64;
  c.allow_loops = true;
  return c;
}

tmg::fuzz::FuzzConfig dag_config() {
  tmg::fuzz::FuzzConfig c;
  c.max_inputs = 3;
  c.max_locals = 4;
  c.max_depth = 4;
  c.max_stmts = 5;
  c.max_paths = 256;
  c.max_input_product = 64;
  c.allow_loops = false;
  return c;
}

std::string file_name(const char* prefix, std::size_t i) {
  std::ostringstream os;
  os << prefix;
  os.width(4);
  os.fill('0');
  os << i << ".mc";
  return os.str();
}

/// Seeded re-pricing: every `__cost(N)` annotation gets a seeded offset in
/// [0, 9]. Costs only price paths; they never change which paths run or
/// how hard a feasibility query is.
std::string reprice(const std::string& src, tmg::Rng& rng) {
  static const std::string kTag = "__cost(";
  std::string out;
  std::size_t last = 0;
  for (std::size_t at = src.find(kTag); at != std::string::npos;
       at = src.find(kTag, last)) {
    std::size_t end = at + kTag.size();
    while (end < src.size() && std::isdigit(static_cast<unsigned char>(src[end])))
      ++end;
    if (end == at + kTag.size() || end >= src.size() || src[end] != ')') {
      out.append(src, last, end - last);  // not a plain `__cost(N)`
      last = end;
      continue;
    }
    const std::int64_t n = std::stoll(src.substr(at + kTag.size(),
                                                 end - at - kTag.size()));
    out.append(src, last, at - last);
    out += kTag + std::to_string(n + rng.range(0, 9)) + ")";
    last = end + 1;
  }
  out.append(src, last, std::string::npos);
  return out;
}

/// One fuzz corpus. The program structures are the first `count`
/// programs of a fixed generator stream (`salt` picks the stream), so
/// every seed analyses the same control flow and the same heavy files:
/// per-file cost is heavy-tailed (a median file takes ~10 ms, the
/// dearest ~100x that), and drawing the structures from the seed made
/// the corpus cost, not the code, decide the numbers. File order is fixed
/// too: with two workers, where the heavy files sit on the job frontier
/// moved wall time and peak RSS by 15-35 % between seeds. The seed
/// re-prices every extern call, so each seed's timing models differ and
/// are checked afresh.
/// `need_loop_branch` keeps only programs with a decision inside a
/// bounded loop, a structural property, never a cost.
std::vector<std::string> fuzz_corpus(std::uint64_t seed, std::uint64_t salt,
                                     std::size_t count,
                                     const tmg::fuzz::FuzzConfig& cfg,
                                     bool need_loop_branch) {
  std::vector<std::string> out;
  for (std::uint64_t k = 0; out.size() < count; ++k) {
    const tmg::fuzz::GeneratedProgram p =
        tmg::fuzz::generate_program(mix(mix(salt) + k), cfg);
    if (need_loop_branch && !p.has_branch_in_loop) continue;
    out.push_back(p.source);
  }
  tmg::Rng rng(mix(seed ^ mix(salt)));
  for (std::string& src : out) src = reprice(src, rng);
  return out;
}

// ----------------------------------------------------------- deep-struct

/// if-nesting `depth` deep, one statement per level: depth+1 paths.
std::string nest_function(const std::string& name, int depth) {
  std::ostringstream os;
  os << "void " << name << "(int a)\n{\n  int x = 0;\n";
  for (int i = 0; i < depth; ++i)
    os << "if (a > " << i << ") {\nx = x + " << (i % 7 + 1) << ";\n";
  for (int i = 0; i < depth; ++i) os << "}\n";
  os << "}\n";
  return os.str();
}

/// `len` straight-line statements: one path, one block.
std::string line_function(const std::string& name, int len) {
  std::ostringstream os;
  os << "void " << name << "(int a)\n{\n  int x = a;\n";
  for (int i = 0; i < len; ++i)
    os << "  x = x + " << (i % 5 + 1) << ";\n";
  os << "}\n";
  return os.str();
}

/// Two sequential if/else diamonds: four paths, measured whole at b=4.
std::string small_function(const std::string& name, int c1, int c2) {
  std::ostringstream os;
  os << "void " << name << "(int a)\n{\n  int x = 0;\n"
     << "  if (a > " << c1 << ") { x = 1; } else { x = 2; }\n"
     << "  if (a < " << c2 << ") { x = x + 1; } else { x = x - 1; }\n}\n";
  return os.str();
}

/// Closed-form segment count of nest(depth) partitioned at path bound
/// b=4. Up to depth 3 the function has at most 4 paths and is measured
/// whole. Deeper, the innermost three levels (4 paths) form one region
/// segment, every level above it contributes two block segments (its
/// decision block and its then-statement block), and the function's entry
/// and exit blocks are one block segment each: 2 * (depth - 3) + 3.
/// Line and small functions have at most 4 paths: one segment each.
std::uint64_t nest_segments(int depth) {
  const std::uint64_t d = static_cast<std::uint64_t>(depth);
  return d <= 3 ? 1 : 2 * (d - 3) + 3;
}

struct DeepFile {
  std::string source;
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      expect;  // function -> (paths, segments)
};

/// Nesting depths are stratified so every seed gets the same sizes
/// (hundreds to ~1500 levels, in file order) with a small seeded jitter:
/// the partition cost grows quadratically with depth, so letting one seed
/// draw only deep functions would make the workload's cost a property of
/// the seed. The seed also draws the line lengths and the guard constants.
constexpr int kNestDepths[] = {240, 480, 720, 960, 1200, 1440};
constexpr int kDeepFiles = 6;
constexpr int kLinesPerFile = 2;
constexpr int kSmallPerFile = 40;

std::vector<DeepFile> deep_corpus(std::uint64_t seed) {
  tmg::Rng rng(mix(seed ^ 0xdeadbeefULL));
  std::vector<int> depths(std::begin(kNestDepths), std::end(kNestDepths));
  for (int& d : depths) d += static_cast<int>(rng.range(-4, 4));
  std::vector<DeepFile> out;
  for (int f = 0; f < kDeepFiles; ++f) {
    DeepFile df;
    std::ostringstream os;
    const std::string nest = "nest" + std::to_string(f);
    os << nest_function(nest, depths[static_cast<std::size_t>(f)]);
    df.expect.push_back(
        {nest,
         {static_cast<std::uint64_t>(depths[static_cast<std::size_t>(f)]) + 1,
          nest_segments(depths[static_cast<std::size_t>(f)])}});
    for (int l = 0; l < kLinesPerFile; ++l) {
      const std::string name = "line" + std::to_string(f) + "_" +
                               std::to_string(l);
      os << line_function(name, 700 + static_cast<int>(rng.range(-10, 10)));
      df.expect.push_back({name, {1, 1}});
    }
    for (int s = 0; s < kSmallPerFile; ++s) {
      const std::string name = "small" + std::to_string(f) + "_" +
                               std::to_string(s);
      os << small_function(name, static_cast<int>(rng.range(-50, 50)),
                           static_cast<int>(rng.range(-50, 50)));
      df.expect.push_back({name, {4, 1}});
    }
    df.source = os.str();
    out.push_back(std::move(df));
  }
  return out;
}

// ----------------------------------------------------------- serve-mixed

/// The paper examples the miss edits start from.
const std::vector<std::string> kPaperExamples = {"b1", "b2", "b3", "b4",
                                                 "b5", "b6", "b7", "fig1"};

/// One seeded constant edit of a paper example: re-priced `__cost`
/// annotations (prices change, control flow cannot) and a trailing unused
/// extern declaration carrying the edit's serial number, so every miss is
/// a distinct source even where no annotation exists.
std::string edit_example(const std::string& base, std::uint64_t serial,
                         tmg::Rng& rng) {
  return reprice(base, rng) + "extern void pad(void) __cost(" +
         std::to_string(serial + 1) + ");\n";
}

tmg::driver::PipelineOptions serve_options() {
  tmg::driver::PipelineOptions o;
  o.path_bound = 4;
  o.jobs = 1;  // two daemon workers, one analysis thread each
  return o;
}

bool write_manifest(const fs::path& out, const std::string& workload,
                    const Options& o, const std::vector<std::string>& files,
                    const std::vector<std::string>& misses,
                    const std::vector<std::string>& miss_base,
                    const std::vector<DeepFile>* deep) {
  std::ostringstream os;
  os << "{\"workload\":" << tmg::json_quote(workload)
     << ",\"options\":{\"bound\":" << o.bound
     << ",\"max_paths\":" << o.max_paths
     << ",\"bmc\":" << (o.bmc ? "true" : "false")
     << ",\"opt\":" << (o.opt ? "true" : "false") << "},\"files\":[";
  for (std::size_t i = 0; i < files.size(); ++i)
    os << (i ? "," : "") << tmg::json_quote(files[i]);
  os << "],\"misses\":[";
  for (std::size_t i = 0; i < misses.size(); ++i)
    os << (i ? "," : "") << "[" << tmg::json_quote(misses[i]) << ","
       << tmg::json_quote(miss_base[i]) << "]";
  // closed_form rows: [file, function, paths, segments].
  os << "],\"closed_form\":[";
  bool first = true;
  for (std::size_t i = 0; deep != nullptr && i < deep->size(); ++i) {
    for (const auto& [fn, counts] : (*deep)[i].expect) {
      os << (first ? "" : ",") << "[" << tmg::json_quote(files[i]) << ","
         << tmg::json_quote(fn) << "," << counts.first << ","
         << counts.second << "]";
      first = false;
    }
  }
  os << "]}\n";
  return write_file(out / "manifest.json", os.str());
}

}  // namespace

bool generate(const std::string& workload, std::uint64_t seed,
              const fs::path& repo, const fs::path& out) {
  std::error_code ec;
  fs::remove_all(out, ec);
  fs::create_directories(out / "files");
  std::vector<std::string> names;
  Options o;
  const auto emit = [&](const std::vector<std::string>& sources,
                        const char* prefix) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      names.push_back(file_name(prefix, i));
      if (!write_file(out / "files" / names.back(), sources[i])) return false;
    }
    return true;
  };

  if (workload == "loop-b4") {
    o.opt = true;
    if (!emit(fuzz_corpus(seed, 1, kLoopFiles, loop_config(), true), "loop"))
      return false;
    return write_manifest(out, workload, o, names, {}, {}, nullptr);
  }
  if (workload == "dag-whole") {
    o.bound = 1000000;  // above every path count: whole-function segments
    o.max_paths = 4096;
    if (!emit(fuzz_corpus(seed, 2, kDagFiles, dag_config(), false), "dag"))
      return false;
    return write_manifest(out, workload, o, names, {}, {}, nullptr);
  }
  if (workload == "deep-struct") {
    o.bmc = false;
    const std::vector<DeepFile> deep = deep_corpus(seed);
    std::vector<std::string> sources;
    for (const DeepFile& d : deep) sources.push_back(d.source);
    if (!emit(sources, "deep")) return false;
    return write_manifest(out, workload, o, names, {}, {}, &deep);
  }
  if (workload == "serve-mixed") {
    // Hits measure lookup, fast path, render and the wire, not analysis:
    // small loop-free programs keep the warm-up (paid in set-up) short.
    tmg::fuzz::FuzzConfig hit_cfg = dag_config();
    hit_cfg.max_inputs = 2;
    hit_cfg.max_depth = 2;
    hit_cfg.max_stmts = 3;
    hit_cfg.max_paths = 16;
    hit_cfg.max_input_product = 16;
    const std::vector<std::string> hits =
        fuzz_corpus(seed, 3, kServeHitFiles, hit_cfg, false);
    if (!emit(hits, "hit")) return false;
    const tmg::driver::PipelineOptions popts = serve_options();
    std::ostringstream hit_lines;
    for (std::size_t i = 0; i < hits.size(); ++i)
      hit_lines << tmg::driver::serialize_serve_request(popts, {names[i]},
                                                        {hits[i]})
                << "\n";
    if (!write_file(out / "hits.jsonl", hit_lines.str())) return false;

    std::vector<std::string> bases;
    for (const std::string& e : kPaperExamples) {
      bases.push_back(read_file(repo / "examples" / (e + ".mc")));
      if (bases.back().empty()) {
        std::cerr << "tmgbench: missing examples/" << e << ".mc\n";
        return false;
      }
    }
    // Misses come in blocks of one edit of each example, in a seeded
    // order within the block: a CLI run of b1 takes ~4 ms and one of fig1
    // ~16 ms, so whole blocks cost the same for every seed.
    tmg::Rng rng(mix(seed ^ 0x5e77eULL));
    std::vector<std::string> misses, miss_base;
    std::ostringstream miss_lines;
    std::vector<std::size_t> block(kPaperExamples.size());
    for (std::size_t i = 0; i < kServeMisses; ++i) {
      const std::size_t at = i % block.size();
      if (at == 0) {
        for (std::size_t k = 0; k < block.size(); ++k) block[k] = k;
        for (std::size_t k = block.size() - 1; k > 0; --k)
          std::swap(block[k], block[rng.below(k + 1)]);
      }
      const std::size_t b = block[at];
      const std::string src = edit_example(bases[b], i, rng);
      misses.push_back(file_name("miss", i));
      miss_base.push_back(kPaperExamples[b]);
      miss_lines << tmg::driver::serialize_serve_request(
                        popts, {misses.back()}, {src})
                 << "\n";
    }
    if (!write_file(out / "misses.jsonl", miss_lines.str())) return false;
    return write_manifest(out, workload, o, names, misses, miss_base,
                          nullptr);
  }
  std::cerr << "tmgbench: unknown workload '" << workload << "'\n";
  return false;
}

bool read_manifest(const fs::path& dir, Manifest& m) {
  const std::string text = read_file(dir / "manifest.json");
  std::string err;
  const auto v = tmg::json_parse(text, &err);
  if (!v) {
    std::cerr << "tmgbench: bad manifest: " << err << "\n";
    return false;
  }
  m.workload = v->get("workload").as_string();
  const tmg::JsonValue& o = v->get("options");
  m.options.bound = static_cast<std::uint64_t>(o.get("bound").as_int());
  m.options.max_paths = static_cast<std::size_t>(o.get("max_paths").as_int());
  m.options.bmc = o.get("bmc").as_bool();
  m.options.opt = o.get("opt").as_bool();
  for (const tmg::JsonValue& f : v->get("files").items())
    m.files.push_back(f.as_string());
  for (const tmg::JsonValue& f : v->get("misses").items()) {
    if (f.items().size() != 2) return false;
    m.misses.push_back(f.items()[0].as_string());
    m.miss_base.push_back(f.items()[1].as_string());
  }
  for (const tmg::JsonValue& row : v->get("closed_form").items()) {
    if (row.items().size() != 4) return false;
    m.closed_form[row.items()[0].as_string()][row.items()[1].as_string()] = {
        static_cast<std::uint64_t>(row.items()[2].as_int()),
        static_cast<std::uint64_t>(row.items()[3].as_int())};
  }
  return !m.workload.empty();
}

}  // namespace tmgbench
