#include "src/baselines/baseline_agent.h"

#include "src/common/check.h"

namespace bmx {

BaselineAgent::BaselineAgent(Node* node) : node_(node) {
  BMX_CHECK(node_ != nullptr);
  node_->set_extra_handler(this);
}

void BaselineAgent::HandleMessage(const Message& msg) {
  switch (msg.payload->kind()) {
    case MsgKind::kStrongUpdate:
      HandleStrongUpdate(msg);
      return;
    case MsgKind::kStrongUpdateAck:
      BMX_CHECK_GT(strong_acks_pending_, 0u);
      strong_acks_pending_--;
      return;
    case MsgKind::kStwStop:
      HandleStwStop(msg);
      return;
    case MsgKind::kStwRootsReply:
      stw_done_received_++;
      return;
    case MsgKind::kStwResume:
      stopped_ = false;
      return;
    case MsgKind::kRcIncrement:
      HandleRcDelta(msg, +1);
      return;
    case MsgKind::kRcDecrement:
      HandleRcDelta(msg, -1);
      return;
    default:
      BMX_CHECK(false) << "BaselineAgent got unexpected kind "
                       << MsgKindName(msg.payload->kind());
  }
}

void BaselineAgent::HandleStrongUpdate(const Message& msg) {
  const auto& update = static_cast<const StrongUpdatePayload&>(*msg.payload);
  // Eager application — in a real strong-consistency system the mutators on
  // this node stall behind this; the message + ack are the cost we count.
  node_->dsm().ApplyAddressUpdates(update.updates, msg.src);
  auto ack = std::make_shared<StrongUpdateAckPayload>();
  ack->round = update.round;
  node_->network()->Send(node_->id(), msg.src, std::move(ack));
}

void BaselineAgent::HandleStwStop(const Message& msg) {
  const auto& stop = static_cast<const StwStopPayload&>(*msg.payload);
  stopped_ = true;
  uint64_t before = node_->gc().stats().objects_reclaimed;
  node_->gc().CollectBunch(stop.bunch);
  auto done = std::make_shared<StwDonePayload>();
  done->round = stop.round;
  done->objects_reclaimed = node_->gc().stats().objects_reclaimed - before;
  node_->network()->Send(node_->id(), msg.src, std::move(done));
}

void BaselineAgent::HandleRcDelta(const Message& msg, int64_t delta) {
  Gaddr addr = msg.payload->kind() == MsgKind::kRcIncrement
                   ? static_cast<const RcIncrementPayload&>(*msg.payload).target_addr
                   : static_cast<const RcDecrementPayload&>(*msg.payload).target_addr;
  const ObjectHeader* header = node_->store().HeaderOf(node_->dsm().ResolveAddr(addr));
  Oid oid = header != nullptr ? header->oid : kNullOid;
  int64_t& count = rc_.counts[oid];
  count += delta;
  if (count == 0 && delta < 0) {
    // Count dropped to zero: the reference-counting collector reclaims the
    // object.  With a lost increment or duplicated decrement this can be
    // premature — the hazard §6.1's idempotent tables avoid.
    rc_.reclaimed++;
    rc_.counts.erase(oid);
  } else if (count < 0) {
    rc_.negative_counts++;
  }
}

}  // namespace bmx
