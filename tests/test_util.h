// Shared helpers for the Eden test suites.
#ifndef EDEN_TESTS_TEST_UTIL_H_
#define EDEN_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "src/kernel/context.h"
#include "src/kernel/eden_system.h"
#include "src/kernel/node_kernel.h"
#include "src/kernel/type_manager.h"

namespace eden {

// Locate query rounds `node` issued through either backend: the sum of its
// kernel.locate.queries.broadcast and kernel.locate.queries.directory.
inline uint64_t LocateQueries(const NodeKernel& node) {
  return node.metrics().CounterValue("kernel.locate.queries.broadcast") +
         node.metrics().CounterValue("kernel.locate.queries.directory");
}

// A simple counter type used across test suites:
//   increment (write class) - adds args[0] (default 1), returns new value
//   read      (read class)  - returns current value
//   reset     (write class) - sets to zero
// Representation: data segment 0 holds the count as a u64.
inline std::shared_ptr<TypeManager> MakeCounterType(int reader_concurrency = 4) {
  auto type = std::make_shared<TypeManager>("counter");
  size_t writers = type->AddClass("writers", 1);
  size_t readers = type->AddClass("readers", reader_concurrency);

  auto get_value = [](InvokeContext& ctx) -> uint64_t {
    if (ctx.rep().data_segment_count() == 0) {
      return 0;
    }
    BufferReader reader(ctx.rep().data(0));
    auto value = reader.ReadU64();
    return value.ok() ? *value : 0;
  };
  auto set_value = [](InvokeContext& ctx, uint64_t value) {
    BufferWriter writer;
    writer.WriteU64(value);
    ctx.rep().set_data(0, writer.Take());
  };

  type->AddOperation(OperationSpec{
      .name = "increment",
      .handler =
          [get_value, set_value](InvokeContext& ctx) -> Task<InvokeResult> {
        uint64_t delta = ctx.args().U64At(0).value_or(1);
        uint64_t value = get_value(ctx) + delta;
        set_value(ctx, value);
        co_return InvokeResult::Ok(InvokeArgs{}.AddU64(value));
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kWrite),
      .invocation_class = writers,
  });
  type->AddOperation(OperationSpec{
      .name = "read",
      .handler = [get_value](InvokeContext& ctx) -> Task<InvokeResult> {
        co_return InvokeResult::Ok(InvokeArgs{}.AddU64(get_value(ctx)));
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kRead),
      .invocation_class = readers,
      .read_only = true,
  });
  type->AddOperation(OperationSpec{
      .name = "reset",
      .handler = [set_value](InvokeContext& ctx) -> Task<InvokeResult> {
        set_value(ctx, 0);
        co_return InvokeResult::Ok();
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kWrite),
      .invocation_class = writers,
  });
  type->AddOperation(OperationSpec{
      .name = "checkpoint",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        Status status = co_await ctx.Checkpoint();
        co_return InvokeResult{status, {}};
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kCheckpoint),
      .invocation_class = writers,
  });
  type->AddOperation(OperationSpec{
      .name = "crash",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        ctx.Crash();
        co_return InvokeResult::Ok();
      },
      .required_rights = Rights(Rights::kInvoke | Rights::kOwner),
      .invocation_class = writers,
  });
  return type;
}

// Representation holding a u64 counter value.
inline Representation CounterRep(uint64_t initial = 0) {
  Representation rep;
  BufferWriter writer;
  writer.WriteU64(initial);
  rep.set_data(0, writer.Take());
  return rep;
}

}  // namespace eden

#endif  // EDEN_TESTS_TEST_UTIL_H_
