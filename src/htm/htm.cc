#include "htm/htm.h"

#include <cstdio>

#include "runtime/trace.h"

namespace stacktrack::htm {

namespace {

// Hands the trace layer a way to detect an armed emit inside a transaction — a
// guaranteed RTM abort (clock_gettime / vvar, see rtm_backend.cc) that would silently
// force every fast-path segment onto the slow path. InTx() covers both backends; the
// soft backend's portable tx state makes the guard effective in CI without TSX.
[[maybe_unused]] const bool g_trace_probe_registered = [] {
  runtime::trace::SetInTxProbe([] { return InTx(); });
  return true;
}();
}  // namespace

// Implemented in rtm_backend.cc (real or stub, depending on STACKTRACK_HAVE_RTM).
bool RtmUsableImpl();
int RtmBeginPointImpl();
void RtmCommitImpl();
[[noreturn]] void RtmAbortImpl(uint8_t code);
bool RtmInTxImpl();

bool RtmUsable() { return RtmUsableImpl(); }
int RtmBeginPoint() { return RtmBeginPointImpl(); }
void RtmCommit() { RtmCommitImpl(); }
void RtmAbort(uint8_t code) { RtmAbortImpl(code); }
bool RtmInTx() { return RtmInTxImpl(); }

void SelectBackend(BackendKind kind) {
  if (kind == BackendKind::kRtm && !RtmUsable()) {
    std::fprintf(stderr,
                 "stacktrack: RTM backend requested but TSX is unusable on this machine; "
                 "keeping the software backend\n");
    internal::g_backend = BackendKind::kSoft;
    return;
  }
  internal::g_backend = kind;
}

BackendKind ActiveBackend() { return internal::g_backend; }

}  // namespace stacktrack::htm
