// InvokeContext: the type programmer's window onto the kernel. An operation
// handler, reincarnation handler or behavior receives an InvokeContext and
// through it reads its parameters, manipulates the representation, and calls
// the kernel primitives of paper section 4.5: invocation, checkpoint /
// checksite / crash, move, freeze, and intra-object synchronization.
#ifndef EDEN_SRC_KERNEL_CONTEXT_H_
#define EDEN_SRC_KERNEL_CONTEXT_H_

#include <memory>
#include <string>

#include "src/kernel/object.h"
#include "src/sim/task.h"

namespace eden {

class NodeKernel;

class InvokeContext {
 public:
  InvokeContext(NodeKernel* kernel, std::shared_ptr<ActiveObject> object,
                std::string operation, InvokeArgs args, Rights caller_rights,
                SpanContext span = {})
      : kernel_(kernel),
        object_(std::move(object)),
        core_(object_->core),
        operation_(std::move(operation)),
        args_(std::move(args)),
        caller_rights_(caller_rights),
        span_(span) {}

  // --- Identity & parameters ---------------------------------------------
  const ObjectName& self_name() const { return core_->name; }
  const std::string& operation() const { return operation_; }
  const InvokeArgs& args() const { return args_; }
  Rights caller_rights() const { return caller_rights_; }

  // Mints a capability for this object. Type code may amplify (it *is* the
  // abstraction), so any rights subset may be produced.
  Capability SelfCapability(Rights rights = Rights::All()) const {
    return Capability(core_->name, rights);
  }

  // --- State ----------------------------------------------------------------
  Representation& rep() { return core_->rep; }
  const Representation& rep() const { return core_->rep; }

  // False once the object has crashed; long-running behaviors must poll this.
  bool alive() const { return core_->alive; }

  // --- Kernel primitives (awaitable) ---------------------------------------
  // Synchronous invocation of another object: suspends this invocation until
  // the reply or the timeout in `options` (0 = kernel default). For
  // asynchronous invocation simply do not co_await the returned future
  // immediately.
  // `options` is a const reference defaulting to a named constant, and
  // custom options must be a named local at the call site, never an inline
  // temporary — see the note on kDefaultInvokeOptions.
  Future<InvokeResult> Invoke(const Capability& target, const std::string& op,
                              InvokeArgs args = {},
                              const InvokeOptions& options = kDefaultInvokeOptions);

  // Deprecated positional-timeout form; use InvokeOptions instead.
  [[deprecated("pass InvokeOptions instead of a positional timeout")]]
  Future<InvokeResult> Invoke(const Capability& target, const std::string& op,
                              InvokeArgs args, SimDuration timeout) {
    return Invoke(target, op, std::move(args),
                  InvokeOptions::WithTimeout(timeout));
  }

  // Records the representation on stable storage per the checksite policy.
  // The type programmer must call this at a consistent point (section 4.4).
  Future<Status> Checkpoint();

  // Chooses the long-term storage site(s) and reliability level.
  Status SetChecksite(const CheckpointPolicy& policy);

  // Simulated virtual-memory failure: destroys all active state. If the
  // object has checkpointed, it becomes passive; otherwise it is lost.
  void Crash();

  // Crash + erase long-term state everywhere: the exit operation.
  void Destroy();

  // Asks the kernel to transfer this object to another node. Resolves after
  // running invocations drain and the transfer is acknowledged. The calling
  // invocation itself continues executing on the *old* node until it
  // returns; subsequent invocations are served at the new home.
  Future<Status> RequestMove(StationId new_home);

  // Makes the representation immutable; the kernel may then replicate and
  // cache it at other nodes (section 4.3) as a read lease that never expires.
  // One-way.
  Status Freeze();

  // --- Scheduling / synchronization ----------------------------------------
  Future<Unit> Sleep(SimDuration duration);
  Semaphore& semaphore(const std::string& name, int initial = 1) {
    return core_->semaphore(name, initial);
  }
  MessagePort& port(const std::string& name) { return core_->port(name); }

  // --- Environment ----------------------------------------------------------
  StationId node() const;
  Simulation& sim();
  NodeKernel& kernel() { return *kernel_; }
  const std::shared_ptr<ActiveObject>& object() const { return object_; }

  // The dispatch span this invocation runs under (invalid when tracing is
  // off). Nested Invoke/Checkpoint calls parent their spans here, so a
  // cross-node call chain assembles into one trace tree.
  const SpanContext& span() const { return span_; }

 private:
  NodeKernel* kernel_;
  std::shared_ptr<ActiveObject> object_;
  std::shared_ptr<ObjectCore> core_;
  std::string operation_;
  InvokeArgs args_;
  Rights caller_rights_;
  SpanContext span_;
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_CONTEXT_H_
