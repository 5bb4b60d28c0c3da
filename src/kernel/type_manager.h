// TypeManager: "a collection of procedures defining the operations on the
// object, shared among objects of the same type" (paper section 4.1). The
// type programmer divides operations into "an exhaustive and mutually
// exclusive set of invocation classes, and specifies the number of concurrent
// processes that are allowed to be servicing each class" (section 4.2); a
// class limited to one process gives mutual exclusion.
//
// A TypeManager also carries the reincarnation condition handler (run when a
// passive object is activated, section 4.2) and any behaviors (detached
// caretaker processes spawned at activation).
#ifndef EDEN_SRC_KERNEL_TYPE_MANAGER_H_
#define EDEN_SRC_KERNEL_TYPE_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rights.h"
#include "src/common/status.h"
#include "src/kernel/invoke.h"
#include "src/sim/task.h"

namespace eden {

class InvokeContext;

// An operation body: a coroutine that may co_await nested invocations,
// sleeps, semaphores and kernel primitives, and finally produces the reply.
using OperationHandler = std::function<Task<InvokeResult>(InvokeContext&)>;

// Runs after a passive object's representation is reloaded and before any
// queued invocation is dispatched: "does any work needed to reinitialize the
// object, build temporary data structures, and so on".
using ReincarnationHandler = std::function<Task<Status>(InvokeContext&)>;

// A detached caretaker process ("behavior"): tree balancing, internal garbage
// collection, etc. Should loop `while (ctx.alive())`.
using BehaviorBody = std::function<Task<void>(InvokeContext&)>;

struct InvocationClassSpec {
  std::string name;
  // Concurrent processes allowed to service this class; 1 = mutual exclusion.
  int concurrency_limit = 1;
  // Invocations queued beyond this bound are refused (internal flow control).
  size_t queue_limit = 1024;
};

struct OperationSpec {
  std::string name;
  OperationHandler handler;
  // The capability presented must cover these rights.
  Rights required_rights = Rights(Rights::kInvoke);
  // Index into the type's invocation classes.
  size_t invocation_class = 0;
  // Read-only operations may be served by leased copies (DESIGN.md §15),
  // including a frozen object's never-expiring one.
  bool read_only = false;
  // Whether the operation may modify the representation. Frozen objects
  // refuse mutating operations but still accept kernel housekeeping
  // (checkpoint, move, crash, ...), which is non-mutating by nature.
  bool mutates = true;
};

class TypeManager {
 public:
  // Every type starts with a "default" class of concurrency limit 1, so a
  // naive type is single-threaded (safe) until the programmer says otherwise.
  explicit TypeManager(std::string type_name);

  const std::string& name() const { return name_; }

  // --- Construction (builder style) --------------------------------------
  // Returns the new class index for use in OperationSpec::invocation_class.
  size_t AddClass(std::string class_name, int concurrency_limit,
                  size_t queue_limit = 1024);
  TypeManager& AddOperation(OperationSpec spec);
  TypeManager& SetReincarnation(ReincarnationHandler handler);
  TypeManager& AddBehavior(std::string behavior_name, BehaviorBody body);

  // --- Queries ------------------------------------------------------------
  const OperationSpec* FindOperation(const std::string& operation) const;
  const std::vector<InvocationClassSpec>& classes() const { return classes_; }
  const ReincarnationHandler& reincarnation() const { return reincarnation_; }
  const std::vector<std::pair<std::string, BehaviorBody>>& behaviors() const {
    return behaviors_;
  }
  std::vector<std::string> OperationNames() const;

 private:
  std::string name_;
  std::vector<InvocationClassSpec> classes_;
  std::map<std::string, OperationSpec> operations_;
  ReincarnationHandler reincarnation_;
  std::vector<std::pair<std::string, BehaviorBody>> behaviors_;
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_TYPE_MANAGER_H_
