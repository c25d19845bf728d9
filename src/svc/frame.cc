#include "svc/frame.h"

#include "util/bytes.h"

namespace olev::svc {

std::vector<std::uint8_t> encode_frame(const net::Message& message) {
  const std::vector<std::uint8_t> payload = net::serialize(message);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.resize(kFrameHeaderBytes);
  util::store_le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::optional<std::size_t> FrameDecoder::pending_length() const {
  if (buffer_.size() < kFrameHeaderBytes) return std::nullopt;
  return static_cast<std::size_t>(
      util::load_le<std::uint32_t>(buffer_.data()));
}

bool FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (oversized_) return false;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Check the bound eagerly: the header alone is enough to convict, no need
  // to buffer the body first.
  if (const auto length = pending_length();
      length.has_value() && *length > max_frame_bytes_) {
    oversized_ = true;
    buffer_.clear();
    buffer_.shrink_to_fit();
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::next() {
  if (oversized_) return std::nullopt;
  const auto length = pending_length();
  if (!length.has_value() || buffer_.size() < kFrameHeaderBytes + *length) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> payload(
      buffer_.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
      buffer_.begin() +
          static_cast<std::ptrdiff_t>(kFrameHeaderBytes + *length));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() +
                    static_cast<std::ptrdiff_t>(kFrameHeaderBytes + *length));
  ++frames_decoded_;
  // The next frame's header may already be buffered and oversized; latch now
  // so the caller notices before waiting for more bytes.
  if (const auto following = pending_length();
      following.has_value() && *following > max_frame_bytes_) {
    oversized_ = true;
    buffer_.clear();
  }
  return payload;
}

}  // namespace olev::svc
