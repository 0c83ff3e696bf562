// A colocated mix is a system::TiledSystem built from a MixSpec: one
// front-end runs every closed run, one program or N (tiled_system.hpp).
#pragma once

#include "system/tiled_system.hpp"

namespace tdn::multi {

using MultiProgramSystem = system::TiledSystem;

}  // namespace tdn::multi
