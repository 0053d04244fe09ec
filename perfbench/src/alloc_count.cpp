// The process-wide span recorder and the counting operator new.
//
// Each thread records into its own SpanStack (registered once under a
// mutex), so the hot path touches only thread-local state. Shard worker
// threads end before ShardedEngine::run returns, so their stacks are read
// only after they have been joined.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<Layer> g_phase{Layer::none};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<SpanStack>> stacks;  // guarded by mutex
  const SpanStack* main = nullptr;                 // guarded by mutex
};

// Leaked on purpose: operator new may run after static destructors.
Registry& registry() {
  static auto* r = new Registry();
  return *r;
}

thread_local SpanStack* t_stack = nullptr;
thread_local bool t_registering = false;

SpanStack* stack_for_thread() {
  if (t_stack != nullptr || t_registering) return t_stack;
  t_registering = true;
  auto stack = std::make_unique<SpanStack>();
  SpanStack* raw = stack.get();
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (r.main == nullptr) r.main = raw;  // the first caller drives the run
    r.stacks.push_back(std::move(stack));
  }
  t_stack = raw;
  t_registering = false;
  return raw;
}

inline void note_alloc(std::size_t size) noexcept {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  SpanStack* stack = stack_for_thread();
  if (stack == nullptr) return;  // the registration's own allocations
  stack->note_alloc(stack->current(g_phase.load(std::memory_order_relaxed)),
                    size);
}

}  // namespace

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}
void set_phase(Layer layer) noexcept {
  g_phase.store(layer, std::memory_order_relaxed);
}

void open_span(Layer layer) noexcept {
  if (SpanStack* stack = stack_for_thread()) stack->open(layer, wall_ns());
}

void close_span() noexcept {
  if (SpanStack* stack = stack_for_thread()) stack->close(wall_ns());
}

std::vector<ThreadTotals> thread_totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<ThreadTotals> out;
  for (const auto& stack : r.stacks) {
    out.push_back({stack.get() == r.main, stack->totals(), stack->root_ns()});
  }
  return out;
}

void reset_totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  // Shard workers are new threads on every engine run: drop their stacks
  // so the registry stays bounded. The driving thread keeps its own.
  std::erase_if(r.stacks, [&](const std::unique_ptr<SpanStack>& stack) {
    return stack.get() != r.main;
  });
  for (const auto& stack : r.stacks) stack->reset();
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  perfbench::note_alloc(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  perfbench::note_alloc(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
