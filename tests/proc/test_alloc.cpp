// Allocation regression for the per-call probe path.
//
// This binary replaces the global allocation functions with counting ones
// and asserts that, once warmed up, SimThread::call_function allocates
// nothing per call on each of the three paths the paper prices: a function
// the Guide compiler instrumented (Full), a function carrying dynamic
// VT_begin/VT_end snippets (Dynamic), and an untouched function.  Every
// replaceable form is defined so no sanitizer runtime's copy is linked in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "image/snippet.hpp"
#include "machine/cluster.hpp"
#include "proc/process.hpp"
#include "vt/vtlib.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  return p;
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  void* p = counted(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n, kDefault); }
void* operator new[](std::size_t n) { return counted_or_throw(n, kDefault); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n, kDefault); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n, kDefault); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dyntrace::proc {
namespace {

enum class Path { kFull, kDynamic, kUninstrumented };

constexpr image::FunctionId kFn = 1;
constexpr int kWarmupCalls = 64;
constexpr int kMeasuredCalls = 2000;

struct Harness {
  explicit Harness(Path path)
      : cluster(engine, machine::ibm_power3_sp()),
        process(cluster, 0, 0, 0, image::ProgramImage(make_symbols())),
        store(std::make_shared<vt::TraceStore>()),
        vt(process, store, options()) {
    vt.link();
    if (path == Path::kFull) process.image().set_static_instrumented(kFn, true);
    if (path == Path::kDynamic) {
      const std::vector<std::int64_t> arg{kFn};
      process.image().install_probe(kFn, image::ProbeWhere::kEntry,
                                    image::snippet::call("VT_begin", arg));
      process.image().install_probe(kFn, image::ProbeWhere::kExit,
                                    image::snippet::call("VT_end", arg));
    }
  }

  static std::shared_ptr<const image::SymbolTable> make_symbols() {
    auto table = std::make_shared<image::SymbolTable>();
    table->add("main");
    table->add("leaf");
    return table;
  }

  /// Large enough that the measured calls never flush the event buffer
  /// (a flush appends to the growing in-memory trace by design).
  static vt::VtLib::Options options() {
    vt::VtLib::Options o;
    o.buffer_records = 4 * (kWarmupCalls + kMeasuredCalls);
    return o;
  }

  /// Heap allocations made by kMeasuredCalls steady-state calls of kFn.
  std::uint64_t measure() {
    std::uint64_t allocations = ~std::uint64_t{0};
    engine.spawn(
        [](Harness& h, std::uint64_t& out) -> sim::Coro<void> {
          SimThread& t = h.process.main_thread();
          co_await h.vt.vt_init(t);
          const SimThread::BodyFn body = [](SimThread& t2) -> sim::Coro<void> {
            co_await t2.compute(sim::microseconds(2));
          };
          for (int i = 0; i < kWarmupCalls; ++i) co_await t.call_function(kFn, body);
          g_allocations.store(0);
          g_counting.store(true);
          for (int i = 0; i < kMeasuredCalls; ++i) co_await t.call_function(kFn, body);
          g_counting.store(false);
          out = g_allocations.load();
        }(*this, allocations),
        "steady-calls");
    engine.run();
    return allocations;
  }

  sim::Engine engine;
  machine::Cluster cluster;
  SimProcess process;
  std::shared_ptr<vt::TraceStore> store;
  vt::VtLib vt;
};

TEST(ProbePathAllocations, CountingHookSeesAllocations) {
  g_allocations.store(0);
  g_counting.store(true);
  auto probe = std::make_unique<int>(1);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 1u);
}

TEST(ProbePathAllocations, FullStaticCallAllocatesNothing) {
  Harness h(Path::kFull);
  EXPECT_EQ(h.measure(), 0u);
  EXPECT_EQ(h.vt.events_recorded(), 2u * (kWarmupCalls + kMeasuredCalls));
}

TEST(ProbePathAllocations, DynamicSnippetCallAllocatesNothing) {
  Harness h(Path::kDynamic);
  EXPECT_EQ(h.measure(), 0u);
  EXPECT_EQ(h.vt.events_recorded(), 2u * (kWarmupCalls + kMeasuredCalls));
}

TEST(ProbePathAllocations, UninstrumentedCallAllocatesNothing) {
  Harness h(Path::kUninstrumented);
  EXPECT_EQ(h.measure(), 0u);
  EXPECT_EQ(h.vt.events_recorded(), 0u);
}

}  // namespace
}  // namespace dyntrace::proc
