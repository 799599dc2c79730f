// Instrumentation snippets: the code fragments a dynamic instrumenter
// inserts at probe points (Figure 1 of the paper).
//
// A snippet is a small immutable AST.  Leaves either call into an
// instrumentation library ("VT_begin", "MPI_Barrier", ...), touch process
// memory (flags used for spin waits), or send a callback message to the
// instrumenter (DPCL_callback).  The initialization snippet of Figure 6 is
//     seq({ call("MPI_Barrier"), callback("init-done"),
//           spin_until("dynvt_spin", 0), call("MPI_Barrier") })
//
// Execution semantics live in the proc layer (snippets can block, so
// evaluation is a coroutine); this module only defines structure.
//
// Library entry-point names are interned into dense LibSlot ids when a
// snippet is built (and when a library registers its functions), so a
// probe that fires dispatches by index, never by name.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dyntrace::image {

/// Dense id of an instrumentation-library entry-point name, shared by every
/// process: slot i names the same function in every LibraryRegistry.
using LibSlot = std::uint32_t;

/// Pre-interned slots of the two entry points static instrumentation calls.
inline constexpr LibSlot kVtBeginSlot = 0;
inline constexpr LibSlot kVtEndSlot = 1;

/// The slot of `name`, interning it on first use.  Thread-safe; the table is
/// append-only, so a slot never changes meaning.  Not for per-call paths.
LibSlot intern_library_name(std::string_view name);
/// The name interned as `slot` (for diagnostics).
std::string library_name(LibSlot slot);

class Snippet;
using SnippetPtr = std::shared_ptr<const Snippet>;

/// Do nothing (useful as a placeholder in tests).
struct NoOp {};

/// Call an instrumentation-library entry point with integer arguments.
struct CallLibOp {
  std::string function;
  std::vector<std::int64_t> args;
  LibSlot slot = 0;  ///< intern_library_name(function), set by snippet::call
};

/// Execute children in order.
struct SequenceOp {
  std::vector<SnippetPtr> items;
};

/// Store `value` to a named flag in process memory.
struct SetFlagOp {
  std::string flag;
  std::int64_t value = 0;
};

/// Spin until the named flag equals `value` (DYNVT_spin of Figure 6).
struct SpinUntilOp {
  std::string flag;
  std::int64_t value = 0;
};

/// Send an asynchronous message to the attached instrumenter
/// (DPCL_callback of Figure 6).
struct CallbackOp {
  std::string tag;
};

class Snippet {
 public:
  using Node = std::variant<NoOp, CallLibOp, SequenceOp, SetFlagOp, SpinUntilOp, CallbackOp>;

  explicit Snippet(Node node) : node_(std::move(node)) {}

  const Node& node() const { return node_; }

  /// Number of primitive (leaf) operations; a proxy for snippet size used
  /// when charging patch time per probe.
  int primitive_count() const;

  /// Debug/trace rendering, e.g. "seq(call VT_begin(7), set dynvt_spin=1)".
  std::string to_string() const;

 private:
  Node node_;
};

/// Builders.
namespace snippet {

SnippetPtr noop();
SnippetPtr call(std::string function, std::vector<std::int64_t> args = {});
SnippetPtr seq(std::vector<SnippetPtr> items);
SnippetPtr set_flag(std::string flag, std::int64_t value);
SnippetPtr spin_until(std::string flag, std::int64_t value);
SnippetPtr callback(std::string tag);

}  // namespace snippet

}  // namespace dyntrace::image
