// The mutable program image: static instrumentation marks plus the dynamic
// patching state (base trampolines and mini-trampoline chains) per probe
// point.
//
// MPI applications: every process owns a *copy* of the template image (one
// address space each), so dynprof must patch P images.  OpenMP
// applications: all threads share a single image (why Figure 9 is flat for
// Umt98).  ProgramImage is a value type to make both models trivial.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "image/snippet.hpp"
#include "image/symbols.hpp"
#include "machine/spec.hpp"
#include "sim/time.hpp"

namespace dyntrace::image {

enum class ProbeWhere : std::uint8_t { kEntry = 0, kExit = 1 };

const char* to_string(ProbeWhere where);

/// Identifies one installed mini-trampoline within one image.
struct ProbeHandle {
  std::uint64_t value = 0;  ///< 0 = invalid
  explicit operator bool() const { return value != 0; }
  friend bool operator==(ProbeHandle a, ProbeHandle b) { return a.value == b.value; }
};

struct InstalledProbe {
  ProbeHandle handle;
  SnippetPtr snippet;
  bool active = true;
};

/// The active snippets of one probe point, in install order.
using SnippetChain = std::vector<SnippetPtr>;

/// One probe point (a function entry or exit).  The base trampoline exists
/// while any mini-trampoline is installed, active or not.
struct ProbePoint {
  std::vector<InstalledProbe> minis;
  SnippetChain chain;  ///< the active minis' snippets, in install order
  bool has_base_trampoline() const { return !minis.empty(); }
};

class ProgramImage {
 public:
  explicit ProgramImage(std::shared_ptr<const SymbolTable> symbols);

  const SymbolTable& symbols() const { return *symbols_; }
  std::shared_ptr<const SymbolTable> symbols_ptr() const { return symbols_; }

  // --- static instrumentation (written by the Guide compiler) -------------

  /// Mark a function as carrying compiled-in VT_begin/VT_end calls.
  void set_static_instrumented(FunctionId fn, bool on);
  bool static_instrumented(FunctionId fn) const;
  std::size_t static_instrumented_count() const;

  // --- dynamic patching (performed by DPCL daemons) ------------------------

  /// Install a mini-trampoline at a probe point.  Creates the base
  /// trampoline on first install.  Returns a handle unique within this
  /// image.
  ProbeHandle install_probe(FunctionId fn, ProbeWhere where, SnippetPtr snippet,
                            bool active = true);

  /// Remove a mini-trampoline.  Returns false if the handle is unknown
  /// (e.g. already removed).
  bool remove_probe(ProbeHandle handle);

  /// Activate / deactivate without removing.  Returns false if unknown.
  bool set_probe_active(ProbeHandle handle, bool active);

  /// Valid until the point is next patched (a patch publishes a new point):
  /// copy what you need before installing, removing or toggling probes.
  const ProbePoint& probe_point(FunctionId fn, ProbeWhere where) const;

  /// Snippets to execute at a probe point, in install order (active only).
  const SnippetChain& active_snippets(FunctionId fn, ProbeWhere where) const {
    return point(fn, where).chain;
  }
  /// The same list as a shared snapshot (null when empty) for callers that
  /// suspend while walking it: patching the point meanwhile leaves it intact.
  std::shared_ptr<const SnippetChain> active_chain(FunctionId fn, ProbeWhere where) const;

  /// Structural trampoline cost of passing this probe point (jump, register
  /// save/restore, relocated instruction, one chain dispatch per active
  /// mini) -- excludes the cost of snippet bodies, which is charged by the
  /// library functions they call.  Zero when no base trampoline exists:
  /// an unpatched probe point is free, the paper's central premise.
  sim::TimeNs trampoline_overhead(FunctionId fn, ProbeWhere where,
                                  const machine::CostModel& costs) const;

  // --- accounting -----------------------------------------------------------

  /// Total installed mini-trampolines (active + inactive).
  std::size_t installed_probe_count() const;
  std::size_t active_probe_count() const;

  /// Bumped on every successful mutation; lets callers detect patching.
  std::uint64_t patch_epoch() const { return patch_epoch_; }

 private:
  // Probe points are copy-on-write snapshots: a mutation publishes a new
  // ProbePoint and never edits a published one, so a call walking a chain
  // keeps the one it entered with while DPCL patches the point, and copies
  // of an image share every point until one of them is patched.  An
  // unpatched point is a null pointer.
  using PointPtr = std::shared_ptr<const ProbePoint>;
  struct FunctionPatchState {
    bool static_instrumented = false;
    PointPtr points[2];  // indexed by ProbeWhere
  };

  const PointPtr& point_ptr(FunctionId fn, ProbeWhere where) const;
  const ProbePoint& point(FunctionId fn, ProbeWhere where) const;
  /// Replace the point with `p` (an edited copy), rebuilding its chain.
  void publish(FunctionId fn, ProbeWhere where, ProbePoint p);
  bool find_probe(ProbeHandle handle, FunctionId* fn_out, ProbeWhere* where_out) const;

  std::shared_ptr<const SymbolTable> symbols_;
  std::vector<FunctionPatchState> state_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t patch_epoch_ = 0;
};

}  // namespace dyntrace::image
