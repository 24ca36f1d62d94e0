// --scheme= command-line handling for the figure binaries.
//
// Each figure historically hard-coded its scheme columns. They now take an optional
// --scheme=NAME|a,b,c|all|help argument resolved against smr/registry.h, where
// "all" keeps the figure's historical column set (so default output is unchanged)
// and any registered scheme is runnable by name. ST_SCHEME provides the default
// selection when no argument is given.
#ifndef STACKTRACK_BENCH_SCHEME_CLI_H_
#define STACKTRACK_BENCH_SCHEME_CLI_H_

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "smr/registry.h"

namespace stacktrack::bench {

// Returns true to run with *schemes filled; false to exit with *exit_code
// (0 for --scheme=help, 2 for bad arguments).
inline bool ParseFigSchemes(int argc, char** argv,
                            std::initializer_list<const char*> column_defaults,
                            std::vector<std::string>* schemes, int* exit_code) {
  std::string selection = smr::SchemeEnvDefault("all");
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--scheme=", 0) == 0) {
      selection = arg.substr(9);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      *exit_code = 2;
      return false;
    }
  }
  const std::vector<std::string> defaults(column_defaults.begin(),
                                          column_defaults.end());
  if (!smr::ResolveSchemeSelection(selection, defaults, schemes)) {
    *exit_code = selection == "help" ? 0 : 2;
    return false;
  }
  return true;
}

}  // namespace stacktrack::bench

#endif  // STACKTRACK_BENCH_SCHEME_CLI_H_
