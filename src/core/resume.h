// Per-party training-state capture/restore for elastic federation.
//
// These free functions are the single definition of "one party's training
// state": module weights (parameters AND buffers, nn::snapshot_state
// order), Adam moments and step counters, and RNG stream positions —
// including each client's DP noise stream and current row order. The node
// roles apply them at the kCmdCheckpointTrain and kCmdRestore barriers,
// whether gtv-node or GtvTrainer runs them.
//
// Restore validates everything (module shapes via nn::restore_state, Adam
// shapes via Adam::set_state, row-order bounds via restore_row_order)
// before mutating the party, and throws serve::CheckpointError on any
// mismatch: a checkpoint only restores onto a party rebuilt from the same
// data, options, and seed.
#pragma once

#include "serve/checkpoint.h"

namespace gtv::core {

class GtvClient;
class GtvServer;

serve::ServerTrainPart capture_server_train_state(GtvServer& server);
void restore_server_train_state(GtvServer& server, const serve::ServerTrainPart& part);

serve::ClientTrainPart capture_client_train_state(GtvClient& client);
void restore_client_train_state(GtvClient& client, const serve::ClientTrainPart& part);

}  // namespace gtv::core
