// Name-keyed scheme registry: the one place that knows every reclamation scheme.
//
// Benches route all --scheme= handling through here instead of hand-rolled
// `want("name") -> RunScheme<T>` ladders, so registering a new scheme is one
// ST_SMR_SCHEME_TRAITS line plus one entry in RegisteredSchemes — no bench edits,
// and the typed test suites that sweep every scheme pick it up too.
//
//   DispatchScheme(name, fn)   — invoke fn.template operator()<Smr>(info) for the
//                                scheme registered under `name`; false if unknown.
//   ForEachSchemeInfo(fn)      — fn(info) over every registered scheme, in order.
//   ResolveSchemeSelection(..) — expand a --scheme= value ("all", "help", a name,
//                                or a comma list) into validated scheme names.
//   SchemeEnvDefault(fallback) — ST_SCHEME environment override for benches whose
//                                command line did not pick a scheme.
//
// Benches construct `typename Smr::Domain` with its default configuration: every
// scheme's default is the shape it is measured in (StackTrack's scan mode is
// core::StConfig::hashed_scan, on by default).
#ifndef STACKTRACK_SMR_REGISTRY_H_
#define STACKTRACK_SMR_REGISTRY_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "smr/dta.h"
#include "smr/epoch.h"
#include "smr/hazard.h"
#include "smr/hyaline.h"
#include "smr/leaky.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::smr {

struct SchemeInfo {
  const char* name;     // --scheme= key
  const char* display;  // bench column header / report label
  const char* summary;  // one-liner for --scheme=help
};

template <typename Smr>
struct SchemeTraits;  // specialized per scheme below

#define ST_SMR_SCHEME_TRAITS(Type, name_, display_, summary_)  \
  template <>                                                  \
  struct SchemeTraits<Type> {                                  \
    static constexpr SchemeInfo kInfo{name_, display_, summary_}; \
  }

ST_SMR_SCHEME_TRAITS(LeakySmr, "original", "Original",
                     "no reclamation (leaky upper-bound baseline)");
ST_SMR_SCHEME_TRAITS(EpochSmr, "epoch", "Epoch",
                     "quiescence epochs; blocked by any stalled thread");
ST_SMR_SCHEME_TRAITS(HazardSmr, "hazard", "Hazards",
                     "Michael 2004 hazard pointers, fence per protected hop");
ST_SMR_SCHEME_TRAITS(DtaSmr, "dta", "DTA",
                     "drop-the-anchor: anchor posts amortize the per-hop fence");
ST_SMR_SCHEME_TRAITS(StackTrackSmr, "stacktrack", "StackTrack",
                     "transactional stack tracking (the paper's scheme)");
ST_SMR_SCHEME_TRAITS(HyalineSmr, "hyaline", "Hyaline",
                     "era-based distributed reference counting, no scans");

#undef ST_SMR_SCHEME_TRAITS

template <typename... Schemes>
struct SchemeList {
  // The same schemes as another variadic template's arguments, e.g.
  // RegisteredSchemes::Apply<::testing::Types> for a typed test suite.
  template <template <typename...> class To>
  using Apply = To<Schemes...>;
};

// Registration order == report/column order everywhere "all" is expanded.
using RegisteredSchemes =
    SchemeList<LeakySmr, EpochSmr, HazardSmr, DtaSmr, StackTrackSmr, HyalineSmr>;

namespace detail {

template <typename Fn, typename... Schemes>
bool DispatchSchemeImpl(std::string_view name, Fn&& fn, SchemeList<Schemes...>) {
  bool matched = false;
  auto try_one = [&]<typename Smr>() {
    if (!matched && name == SchemeTraits<Smr>::kInfo.name) {
      matched = true;
      fn.template operator()<Smr>(SchemeTraits<Smr>::kInfo);
    }
  };
  (try_one.template operator()<Schemes>(), ...);
  return matched;
}

template <typename Fn, typename... Schemes>
void ForEachSchemeInfoImpl(Fn&& fn, SchemeList<Schemes...>) {
  (fn(SchemeTraits<Schemes>::kInfo), ...);
}

}  // namespace detail

// Invokes fn.template operator()<Smr>(const SchemeInfo&) for the named scheme.
// Use a C++20 templated lambda at the call site:
//   DispatchScheme(name, [&]<typename Smr>(const SchemeInfo& info) { ... });
template <typename Fn>
bool DispatchScheme(std::string_view name, Fn&& fn) {
  return detail::DispatchSchemeImpl(name, fn, RegisteredSchemes{});
}

template <typename Fn>
void ForEachSchemeInfo(Fn&& fn) {
  detail::ForEachSchemeInfoImpl(fn, RegisteredSchemes{});
}

inline std::vector<std::string> AllSchemeNames() {
  std::vector<std::string> names;
  ForEachSchemeInfo([&](const SchemeInfo& info) { names.emplace_back(info.name); });
  return names;
}

inline bool KnownScheme(std::string_view name) {
  bool known = false;
  ForEachSchemeInfo([&](const SchemeInfo& info) { known |= (name == info.name); });
  return known;
}

// `extra` lists bench-local pseudo-schemes (e.g. robustness_lag's
// "stacktrack-service" service variant) accepted alongside registry names.
inline void PrintSchemeHelp(std::FILE* out,
                            const std::vector<std::string>& extra = {}) {
  std::fprintf(out, "registered schemes (--scheme=NAME, comma lists, or all):\n");
  ForEachSchemeInfo([&](const SchemeInfo& info) {
    std::fprintf(out, "  %-12s %s\n", info.name, info.summary);
  });
  for (const std::string& name : extra) {
    std::fprintf(out, "  %-12s (bench-specific variant)\n", name.c_str());
  }
}

// ST_SCHEME picks the default selection for benches whose command line did not.
inline const char* SchemeEnvDefault(const char* fallback) {
  const char* env = std::getenv("ST_SCHEME");
  return env != nullptr && env[0] != '\0' ? env : fallback;
}

// Expands `selection` into scheme names:
//   "all"          -> `all_names` (a bench's historical column set, or every
//                     registered scheme)
//   "help"         -> prints the registry to stdout, returns false (caller exits 0)
//   "a,b,c" / "a"  -> the listed names, each validated against the registry plus
//                     `extra`; unknown names print the registry to stderr and fail
inline bool ResolveSchemeSelection(std::string_view selection,
                                   const std::vector<std::string>& all_names,
                                   std::vector<std::string>* out,
                                   const std::vector<std::string>& extra = {}) {
  out->clear();
  if (selection == "help") {
    PrintSchemeHelp(stdout, extra);
    return false;
  }
  if (selection == "all") {
    *out = all_names;
    return true;
  }
  std::string_view rest = selection;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view name = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (name.empty()) {
      continue;
    }
    bool ok = KnownScheme(name);
    for (const std::string& e : extra) {
      ok |= (name == e);
    }
    if (!ok) {
      std::fprintf(stderr, "unknown scheme: %.*s\n", static_cast<int>(name.size()),
                   name.data());
      PrintSchemeHelp(stderr, extra);
      return false;
    }
    out->emplace_back(name);
  }
  if (out->empty()) {
    std::fprintf(stderr, "empty --scheme selection\n");
    return false;
  }
  return true;
}

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_REGISTRY_H_
