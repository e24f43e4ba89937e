// Configuration for GTV training.
#pragma once

#include <cstdint>

#include "core/partition.h"
#include "gan/ctabgan.h"
#include "obs/health.h"

namespace gtv::core {

// Who learns the selected data indices idx_p each step (§3.1.6).
enum class IndexSharing {
  // Paper's design: client p shares idx_p with the server only; other
  // clients pass ALL rows and the server selects. Defended by
  // training-with-shuffling.
  kServer,
  // The alternative the paper rejects: idx_p goes peer-to-peer to the
  // other clients, who forward only the selected rows. Cheaper, but the
  // co-selection pattern leaks category membership to curious clients —
  // and shuffling cannot help, because the clients know the shuffle seed.
  kPeerToPeer,
};

struct GtvOptions {
  // Shared GAN hyper-parameters. `gan.hidden` is the *total* discriminator
  // FN width across parties (256 in the paper); client FN blocks receive a
  // P_r-proportional share of it.
  gan::GanOptions gan;
  // How G / D blocks are placed between server and clients.
  PartitionSpec partition{0, 2, 2, 0};  // paper's preferred D_0^2 G_2^0
  // Total generator RN width across parties. 256 = paper's "default"
  // setting, 768 = the "enlarged" generator of §4.3.3.
  std::size_t generator_hidden = 256;
  // Shared secret negotiated among clients before training; the server
  // (GtvServer) never reads it.
  std::uint64_t shuffle_seed = 0x5eedf00dULL;
  // The training-with-shuffling defence (§3.1.5). Disabling it reproduces
  // the Fig. 5 reconstruction attack.
  bool training_with_shuffling = true;
  // Removed; must stay false. The gradient penalty is applied by the server
  // to D^t's concatenated input logits, the only penalty no party needs
  // another party's autograd graph for. The exact penalty through every
  // bottom model needed all parties in one address space, and a 10-seed
  // ablation found no quality difference beyond noise (EXPERIMENTS.md), so
  // it was deleted rather than built as a split double-backprop protocol.
  // The member remains so existing option-setting code keeps compiling;
  // NodeConfig::validate() (and so GtvTrainer) rejects true with
  // std::invalid_argument.
  bool exact_gradient_penalty = false;
  // How idx_p is distributed (see IndexSharing).
  IndexSharing index_sharing = IndexSharing::kServer;
  // Optional local-DP-style Gaussian noise added by clients to every
  // intermediate activation they send to the server (std in activation
  // units; 0 disables). The paper discusses — and rejects — this
  // protection because of its accuracy cost; the ablation bench measures
  // that cost.
  float dp_noise_std = 0.0f;
  // Training-health monitoring (gtv::obs::health). Collection itself is
  // armed by GTV_HEALTH=1 (or obs::set_health_enabled); these options only
  // tune what armed collection does — detector thresholds, how often the
  // sample-quality probe runs, and whether a fatal alert aborts training.
  obs::HealthOptions health;
};

}  // namespace gtv::core
