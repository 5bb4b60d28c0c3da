// A placement-policy object and frozen-object replication (paper section 4.3).
//
// Part 1 — policy object: "some objects may have the ability to make location
// decisions for other objects in the system; for example, there may be a
// policy object responsible for the location of objects in a particular
// subsystem." A balancer object inspects where a subsystem's worker objects
// live and migrates them so every node carries a fair share.
//
// Part 2 — frozen objects: "when an object is frozen its representation is
// made immutable... Such an object can be replicated and cached at several
// sites in order to save the overhead of remote invocations. Many traditional
// operating system utilities, such as compilers, will have this property."
// A "compiler release" object is frozen and then consulted from every node;
// after the first remote read each node serves it from a local copy, a read
// lease that never expires. Exits 1 unless every node reports its copy
// cached and exactly one remote invocation for its three reads.
//
//   $ ./load_balancer
#include <cstdio>
#include <vector>

#include "src/kernel/eden_system.h"
#include "src/types/standard_types.h"

using namespace eden;

namespace {

// The policy object: receives worker capabilities + target stations and
// spreads the workers round-robin by invoking their inherited move_to.
std::shared_ptr<AbstractType> BalancerType() {
  auto type = std::make_shared<AbstractType>("policy.balancer", StdObjectType());
  type->AddOperation(AbstractOperation{
      .name = "spread",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        size_t stations = ctx.args().data.size();
        if (stations == 0 || ctx.args().caps.empty()) {
          co_return InvokeResult::Error(
              InvalidArgumentError("spread(stations..., caps...)"));
        }
        uint64_t moved = 0;
        for (size_t i = 0; i < ctx.args().caps.size(); i++) {
          uint64_t station = ctx.args().U64At(i % stations).value_or(0);
          InvokeResult result = co_await ctx.Invoke(
              ctx.args().caps[i], "move_to", InvokeArgs{}.AddU64(station));
          if (result.ok()) {
            moved++;
          }
        }
        co_return InvokeResult::Ok(InvokeArgs{}.AddU64(moved));
      },
  });
  return type;
}

void PrintPlacement(EdenSystem& system, const std::vector<Capability>& workers) {
  for (size_t n = 0; n < system.node_count(); n++) {
    int here = 0;
    for (const Capability& w : workers) {
      if (system.node(n).IsActive(w.name())) {
        here++;
      }
    }
    std::printf("   node%zu: %d worker(s)\n", n, here);
  }
}

}  // namespace

int main() {
  std::printf("=== Placement policy + frozen-object replication ===\n\n");

  EdenSystem system;
  RegisterStandardTypes(system);
  system.RegisterType(BalancerType()->BuildTypeManager());
  for (int i = 0; i < 4; i++) {
    system.AddNode("node" + std::to_string(i));
  }

  // --- Part 1: rebalancing a subsystem --------------------------------------
  std::printf("-- eight workers, all created on node0 (hot spot):\n");
  std::vector<Capability> workers;
  for (int i = 0; i < 8; i++) {
    auto cap = system.node(0).CreateObject("std.counter", Representation{});
    workers.push_back(*cap);
  }
  PrintPlacement(system, workers);

  auto balancer = system.node(3).CreateObject("policy.balancer", Representation{});
  InvokeArgs args;
  for (size_t n = 0; n < system.node_count(); n++) {
    args.AddU64(system.node(n).station());
  }
  for (const Capability& w : workers) {
    args.AddCapability(w);
  }
  InvokeResult spread =
      system.Await(system.node(3).Invoke(*balancer, "spread", std::move(args)));
  system.RunFor(Milliseconds(100));
  std::printf("\n-- after the policy object spreads them (%llu moved):\n",
              static_cast<unsigned long long>(spread.results.U64At(0).value_or(0)));
  PrintPlacement(system, workers);

  // Workers still answer wherever they landed.
  int reachable = 0;
  for (const Capability& w : workers) {
    if (system.Await(system.node(1).Invoke(w, "increment")).ok()) {
      reachable++;
    }
  }
  std::printf("   all %d workers still reachable after migration\n", reachable);

  // --- Part 2: a frozen compiler release ------------------------------------
  std::printf("\n-- a 64 KB \"compiler release\" object, frozen on node0\n");
  Representation release;
  release.set_data(0, Bytes(64 * 1024, 0x42));
  auto compiler = system.node(0).CreateObject("std.data", release);
  system.Await(system.node(0).Invoke(*compiler, "freeze"));

  bool all_cached = true;
  for (size_t n = 1; n < system.node_count(); n++) {
    // First read is remote; the home pushes a copy that never expires...
    uint64_t remote_before =
        system.node(n).metrics().CounterValue("kernel.invoke.remote");
    system.Await(system.node(n).Invoke(*compiler, "get"));
    system.RunFor(Milliseconds(200));  // the copy lands
    // ...every later read is served locally.
    system.Await(system.node(n).Invoke(*compiler, "get"));
    system.Await(system.node(n).Invoke(*compiler, "get"));
    uint64_t remote_after =
        system.node(n).metrics().CounterValue("kernel.invoke.remote");
    bool cached = system.node(n).HasReplica(compiler->name());
    std::printf("   node%zu: replica cached=%s, remote invocations for 3 reads: %llu\n",
                n, cached ? "yes" : "no",
                static_cast<unsigned long long>(remote_after - remote_before));
    all_cached = all_cached && cached && remote_after - remote_before == 1;
  }

  std::printf("\nvirtual time elapsed: %.3f ms\n",
              ToMilliseconds(system.sim().now()));
  if (!all_cached) {
    std::printf("FAIL: a node did not serve its later reads from a local copy\n");
    return 1;
  }
  return 0;
}
