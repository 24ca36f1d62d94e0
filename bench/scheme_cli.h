// The throughput-figure runner shared by fig1_list, fig1_skiplist, fig2_hash and
// fig2_queue, with its --scheme= command-line handling.
//
// A figure takes an optional --scheme=NAME|a,b,c|all|help argument resolved against
// smr/registry.h: "all" is the figure's own column set (the paper's schemes for
// that figure) and any registered scheme is runnable by name. ST_SCHEME provides
// the default selection when no argument is given.
#ifndef STACKTRACK_BENCH_SCHEME_CLI_H_
#define STACKTRACK_BENCH_SCHEME_CLI_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/workload/scenario.h"
#include "smr/registry.h"

namespace stacktrack::bench {

// Prints one throughput figure: a column per selected scheme and a row per
// ST_BENCH_THREADS entry. A row runs `make_scenario(env, threads)`; a cell is
// `point.template operator()<Smr>(scenario)` in ops/sec. Returns the exit status (0
// after --scheme=help, 2 for bad arguments).
template <typename MakeScenario, typename Point>
int RunThroughputFigure(int argc, char** argv,
                        const std::vector<std::string>& column_defaults,
                        const char* title, const char* workload_desc,
                        MakeScenario make_scenario, Point point) {
  std::string selection = smr::SchemeEnvDefault("all");
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--scheme=", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
    selection = arg.substr(9);
  }
  std::vector<std::string> schemes;
  if (!smr::ResolveSchemeSelection(selection, column_defaults, &schemes)) {
    return selection == "help" ? 0 : 2;
  }
  const auto env = workload::EnvConfig::Load();
  workload::PrintHeader(env, title, workload_desc);
  std::printf("%8s", "threads");
  for (const std::string& name : schemes) {
    smr::DispatchScheme(name, [&]<typename Smr>(const smr::SchemeInfo& info) {
      std::printf(" %14s", info.display);
    });
  }
  std::printf("\n");
  for (const uint32_t threads : env.threads) {
    const workload::Scenario scenario = make_scenario(env, threads);
    std::printf("%8u", threads);
    for (const std::string& name : schemes) {
      smr::DispatchScheme(name, [&]<typename Smr>(const smr::SchemeInfo&) {
        std::printf(" %14.0f", point.template operator()<Smr>(scenario));
      });
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace stacktrack::bench

#endif  // STACKTRACK_BENCH_SCHEME_CLI_H_
