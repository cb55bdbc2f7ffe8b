#include "core/error_check_unit.hpp"

namespace ftnoc {

FlitCheck ErrorCheckUnit::check(Flit& f) {
  const ecc::DecodeResult r = ecc::decode(f.codeword());
  switch (r.status) {
    case ecc::DecodeStatus::kClean:
      ++clean_;
      return FlitCheck::kClean;
    case ecc::DecodeStatus::kCorrected:
      ++corrected_;
      f.set_codeword(ecc::encode(r.data));
      return FlitCheck::kCorrected;
    case ecc::DecodeStatus::kUncorrectable:
      ++uncorrectable_;
      return FlitCheck::kUncorrectable;
  }
  return FlitCheck::kClean;
}

void ErrorCheckUnit::reset_counters() {
  clean_ = corrected_ = uncorrectable_ = 0;
}

}  // namespace ftnoc
