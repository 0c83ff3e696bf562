#include "vm/config.hpp"

#include <sstream>

namespace tdn::vm {

std::string VmConfig::canonical() const {
  if (!enabled) return "off";
  std::ostringstream os;
  os << "thp=" << to_string(thp) << ",frag=" << fragmentation
     << ",seed=" << seed << ",l1=" << l1_4k_entries << '.' << l1_2m_entries
     << '@' << l1_latency << ",l2=" << l2_entries << '@' << l2_latency
     << ",psc=" << psc_l4_entries << '.' << psc_l3_entries << '.'
     << psc_l2_entries << '@' << psc_latency
     << ",chg=" << walk_charge_per_level;
  return os.str();
}

}  // namespace tdn::vm
