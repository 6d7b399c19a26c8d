#include "src/core/messages.h"

#include "src/hash/hmac.h"

namespace hcpp::core {

Bytes protocol_mac(BytesView key, std::string_view label, BytesView body,
                   uint64_t timestamp_ns) {
  io::Writer w;
  w.str(label);
  w.bytes(body);
  w.u64(timestamp_ns);
  return hash::hmac_sha256(key, w.data());
}

bool protocol_mac_ok(BytesView key, std::string_view label, BytesView body,
                     uint64_t timestamp_ns, BytesView mac) {
  Bytes expected = protocol_mac(key, label, body, timestamp_ns);
  return ct_equal(expected, mac);
}

Bytes rd_statement(std::string_view physician_id, BytesView tp,
                   uint64_t t11) {
  io::Writer w;
  w.str("hcpp-rd-statement");
  w.str(physician_id);
  w.bytes(tp);
  w.u64(t11);
  return w.take();
}

}  // namespace hcpp::core
