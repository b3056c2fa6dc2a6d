// Packet-compressor NF.
//
// The paper's introduction motivates smart-NIC offload with simple NFs
// "like packet compressors" and complex ones "like WAN optimizers". This NF
// implements the former over the ZIP accelerator's LZ77 codec: payloads are
// compressed in place (frames whose payload does not shrink pass through
// unchanged, flagged in the IP header's DSCP bits so the peer knows whether
// to decompress). It doubles as the workload for the ZIP accelerator's
// functional path.

#ifndef SNIC_NF_COMPRESSOR_H_
#define SNIC_NF_COMPRESSOR_H_

#include <cstdint>

#include "src/nf/network_function.h"

namespace snic::nf {

// DSCP marker for compressed payloads (a locally administered codepoint).
inline constexpr uint8_t kCompressedDscp = 0x2c;

class Compressor : public NetworkFunction {
 public:
  Compressor();

  uint64_t packets_compressed() const { return compressed_; }
  uint64_t bytes_in() const { return bytes_in_; }
  uint64_t bytes_out() const { return bytes_out_; }
  double CompressionRatio() const {
    return bytes_out_ == 0 ? 1.0
                           : static_cast<double>(bytes_in_) /
                                 static_cast<double>(bytes_out_);
  }

  // Inverse NF: restores a frame produced by this compressor. Returns false
  // when the frame was not compressed.
  static bool Decompress(net::Packet& packet);

 protected:
  Verdict HandlePacket(net::Packet& packet) override;
  ImageSections Image() const override { return {0.88, 0.07, 2.52}; }

 private:
  ArenaAllocation window_allocation_;  // the 32 KB dictionary window
  uint64_t compressed_ = 0;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
};

}  // namespace snic::nf

#endif  // SNIC_NF_COMPRESSOR_H_
