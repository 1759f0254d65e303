// tmgbench: the benchmark's helper tool (run.py drives it).
//
//   tmgbench gen   --workload W --seed N --repo DIR --out DIR
//   tmgbench ref   --dir DIR
//   tmgbench trace --dir DIR --seconds S
//
// Exit code 0 on success, 2 on any failure (message on stderr).
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: tmgbench gen|ref|trace [--key value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const std::string& k) -> std::string {
    const auto it = args.find(k);
    return it == args.end() ? std::string() : it->second;
  };
  bool ok = false;
  if (cmd == "gen") {
    ok = tmgbench::generate(arg("--workload"),
                            std::strtoull(arg("--seed").c_str(), nullptr, 10),
                            arg("--repo"), arg("--out"));
  } else if (cmd == "ref") {
    ok = tmgbench::reference(arg("--dir"));
  } else if (cmd == "trace") {
    ok = tmgbench::traced_run(arg("--dir"),
                              std::strtod(arg("--seconds").c_str(), nullptr));
  } else {
    std::cerr << "tmgbench: unknown command '" << cmd << "'\n";
  }
  return ok ? 0 : 2;
}
