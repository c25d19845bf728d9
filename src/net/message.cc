#include "net/message.h"

#include <stdexcept>

#include "util/bytes.h"

namespace olev::net {
namespace {

enum class Tag : std::uint8_t {
  kBeacon = 1,
  kPaymentFunction = 2,
  kPowerRequest = 3,
  kSchedule = 4,
  kControl = 5,
};

/// Entry bound on a message vector: one million sections is far past any
/// realistic corridor, so a larger count is corrupt and is rejected rather
/// than allowed to size a buffer.
constexpr std::size_t kMaxVectorEntries = 1'000'000;

}  // namespace

std::vector<std::uint8_t> serialize(const Message& message) {
  util::ByteWriter w;
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, BeaconMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kBeacon));
          w.u32(msg.player);
          w.f64(msg.position_m);
          w.f64(msg.velocity_mps);
          w.f64(msg.soc);
        } else if constexpr (std::is_same_v<T, PaymentFunctionMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kPaymentFunction));
          w.u32(msg.player);
          w.u64(msg.round);
          w.counted<std::uint32_t>(msg.others_load_kw);
        } else if constexpr (std::is_same_v<T, PowerRequestMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kPowerRequest));
          w.u32(msg.player);
          w.u64(msg.round);
          w.f64(msg.total_kw);
          w.u64(msg.trace.trace_id);
          w.u64(static_cast<std::uint64_t>(msg.trace.client_send_us));
        } else if constexpr (std::is_same_v<T, ScheduleMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kSchedule));
          w.u32(msg.player);
          w.u64(msg.round);
          w.counted<std::uint32_t>(msg.row_kw);
          w.f64(msg.payment);
          w.u64(msg.trace_id);
          w.u32(msg.phases.admit_us);
          w.u32(msg.phases.queue_us);
          w.u32(msg.phases.batch_us);
          w.u32(msg.phases.solve_us);
        } else if constexpr (std::is_same_v<T, ControlMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kControl));
          w.u8(static_cast<std::uint8_t>(msg.code));
          w.u32(msg.player);
          w.u64(msg.round);
        }
      },
      message);
  return w.take();
}

Message deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes, "message");
  const auto tag = static_cast<Tag>(r.u8());
  Message message;
  switch (tag) {
    case Tag::kBeacon: {
      BeaconMsg msg;
      msg.player = r.u32();
      msg.position_m = r.f64();
      msg.velocity_mps = r.f64();
      msg.soc = r.f64();
      message = msg;
      break;
    }
    case Tag::kPaymentFunction: {
      PaymentFunctionMsg msg;
      msg.player = r.u32();
      msg.round = r.u64();
      msg.others_load_kw =
          r.counted<std::uint32_t, double>(kMaxVectorEntries);
      message = msg;
      break;
    }
    case Tag::kPowerRequest: {
      PowerRequestMsg msg;
      msg.player = r.u32();
      msg.round = r.u64();
      msg.total_kw = r.f64();
      msg.trace.trace_id = r.u64();
      msg.trace.client_send_us = static_cast<std::int64_t>(r.u64());
      message = msg;
      break;
    }
    case Tag::kSchedule: {
      ScheduleMsg msg;
      msg.player = r.u32();
      msg.round = r.u64();
      msg.row_kw = r.counted<std::uint32_t, double>(kMaxVectorEntries);
      msg.payment = r.f64();
      msg.trace_id = r.u64();
      msg.phases.admit_us = r.u32();
      msg.phases.queue_us = r.u32();
      msg.phases.batch_us = r.u32();
      msg.phases.solve_us = r.u32();
      message = msg;
      break;
    }
    case Tag::kControl: {
      ControlMsg msg;
      const std::uint8_t code = r.u8();
      if (code < static_cast<std::uint8_t>(ControlCode::kRetryLater) ||
          code > static_cast<std::uint8_t>(ControlCode::kSessionResumed)) {
        throw std::runtime_error("message: unknown control code");
      }
      msg.code = static_cast<ControlCode>(code);
      msg.player = r.u32();
      msg.round = r.u64();
      message = msg;
      break;
    }
    default:
      throw std::runtime_error("message: unknown tag");
  }
  if (!r.exhausted()) throw std::runtime_error("message: trailing bytes");
  return message;
}

}  // namespace olev::net
