#include "image/snippet.hpp"

#include <mutex>
#include <sstream>
#include <unordered_map>

#include "image/symbols.hpp"
#include "support/common.hpp"

namespace dyntrace::image {

namespace {

/// The process-wide name -> slot table.  Function-local so it is ready for
/// libraries linked from other static initialisers.
struct LibNameTable {
  std::mutex mutex;
  std::vector<std::string> names;
  std::unordered_map<std::string, LibSlot, StringHash, std::equal_to<>> slots;

  LibNameTable() {
    for (const char* fixed : {"VT_begin", "VT_end"}) intern(fixed);
  }
  LibSlot intern(std::string_view name) {
    const auto it = slots.find(name);
    if (it != slots.end()) return it->second;
    const auto slot = static_cast<LibSlot>(names.size());
    names.emplace_back(name);
    slots.emplace(names.back(), slot);
    return slot;
  }
};

LibNameTable& lib_names() {
  static LibNameTable table;
  return table;
}

}  // namespace

LibSlot intern_library_name(std::string_view name) {
  LibNameTable& table = lib_names();
  std::lock_guard<std::mutex> lock(table.mutex);
  return table.intern(name);
}

std::string library_name(LibSlot slot) {
  LibNameTable& table = lib_names();
  std::lock_guard<std::mutex> lock(table.mutex);
  DT_ASSERT(slot < table.names.size(), "library slot ", slot, " was never interned");
  return table.names[slot];
}

namespace {

struct CountVisitor {
  int operator()(const NoOp&) const { return 0; }
  int operator()(const CallLibOp&) const { return 1; }
  int operator()(const SetFlagOp&) const { return 1; }
  int operator()(const SpinUntilOp&) const { return 1; }
  int operator()(const CallbackOp&) const { return 1; }
  int operator()(const SequenceOp& s) const {
    int total = 0;
    for (const auto& item : s.items) total += item->primitive_count();
    return total;
  }
};

struct PrintVisitor {
  std::ostringstream& os;
  void operator()(const NoOp&) const { os << "noop"; }
  void operator()(const CallLibOp& c) const {
    os << "call " << c.function << '(';
    for (std::size_t i = 0; i < c.args.size(); ++i) {
      if (i) os << ", ";
      os << c.args[i];
    }
    os << ')';
  }
  void operator()(const SetFlagOp& s) const { os << "set " << s.flag << '=' << s.value; }
  void operator()(const SpinUntilOp& s) const { os << "spin_until " << s.flag << "==" << s.value; }
  void operator()(const CallbackOp& c) const { os << "callback '" << c.tag << "'"; }
  void operator()(const SequenceOp& s) const {
    os << "seq(";
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      if (i) os << ", ";
      os << s.items[i]->to_string();
    }
    os << ')';
  }
};

}  // namespace

int Snippet::primitive_count() const { return std::visit(CountVisitor{}, node_); }

std::string Snippet::to_string() const {
  std::ostringstream os;
  std::visit(PrintVisitor{os}, node_);
  return os.str();
}

namespace snippet {

SnippetPtr noop() { return std::make_shared<const Snippet>(Snippet::Node{NoOp{}}); }

SnippetPtr call(std::string function, std::vector<std::int64_t> args) {
  const LibSlot slot = intern_library_name(function);
  return std::make_shared<const Snippet>(
      Snippet::Node{CallLibOp{std::move(function), std::move(args), slot}});
}

SnippetPtr seq(std::vector<SnippetPtr> items) {
  return std::make_shared<const Snippet>(Snippet::Node{SequenceOp{std::move(items)}});
}

SnippetPtr set_flag(std::string flag, std::int64_t value) {
  return std::make_shared<const Snippet>(Snippet::Node{SetFlagOp{std::move(flag), value}});
}

SnippetPtr spin_until(std::string flag, std::int64_t value) {
  return std::make_shared<const Snippet>(Snippet::Node{SpinUntilOp{std::move(flag), value}});
}

SnippetPtr callback(std::string tag) {
  return std::make_shared<const Snippet>(Snippet::Node{CallbackOp{std::move(tag)}});
}

}  // namespace snippet

}  // namespace dyntrace::image
