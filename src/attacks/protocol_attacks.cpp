#include "attacks/protocol_attacks.hpp"

#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::attacks {

namespace {

struct World {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
  std::unique_ptr<net::DuplexChannel> channel;
};

World make_world(std::uint64_t seed) {
  World w;
  w.channel = std::make_unique<net::DuplexChannel>();
  w.puf = std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(),
                                             0xA77ACC + seed, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("battery"));
  const auto provisioned = core::provision(*w.puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("fw");
  w.device = std::make_unique<core::AuthDevice>(*w.puf,
                                                provisioned.device_crp, memory);
  w.verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      w.puf->challenge_bytes());
  return w;
}

bool honest_session(World& w, std::uint64_t session, std::uint64_t seed) {
  return core::run_auth_session(*w.verifier, *w.device, *w.channel, session,
                                seed);
}

}  // namespace

ProtocolAttackReport replay_attack(std::uint64_t seed) {
  ProtocolAttackReport report;
  report.attack = "replay";
  World w = make_world(seed);

  net::Message recorded{};
  w.channel->set_adversary([&](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kBtoA &&
        m.type == net::MessageType::kAuthResponse) {
      recorded = m;
    }
    return net::Verdict::pass();
  });
  if (!honest_session(w, 1, 100)) {
    report.honest_parties_recovered = false;
    return report;
  }

  // New verifier round; attacker answers with the recording.
  (void)w.verifier->start(2, 200);
  const auto outcome = w.verifier->process_response(recorded);
  report.attacker_succeeded = outcome.status == core::AuthStatus::kOk;

  // Verify the honest pair still works afterwards.
  w.channel->set_adversary(nullptr);
  report.honest_parties_recovered = honest_session(w, 3, 300);
  return report;
}

ProtocolAttackReport mitm_session_graft(std::uint64_t seed) {
  ProtocolAttackReport report;
  report.attack = "mitm-session-graft";
  World w = make_world(seed);

  // The attacker relays the verifier's request to the device but rewrites
  // the session id, hoping to make the device answer a session the
  // attacker controls; it then re-frames the device's answer back. Written
  // as single steps: a session machine drops a frame for a foreign session
  // before the device sees it, which would hide the MAC check under test.
  constexpr std::uint64_t kAttackerSession = 0xEE;
  net::Message request = w.verifier->start(1, 100);
  request.session_id = kAttackerSession;
  auto response = w.device->handle_request(request);
  if (!response) {
    report.honest_parties_recovered = false;
    return report;
  }
  response->session_id = 1;  // graft back onto the verifier's session
  // The grafted response carries a MAC computed over the attacker's
  // session id; the verifier MACs over its own id -> must fail.
  const auto outcome = w.verifier->process_response(*response);
  report.attacker_succeeded = outcome.status == core::AuthStatus::kOk;

  report.honest_parties_recovered = honest_session(w, 9, 900);
  return report;
}

ProtocolAttackReport desync_attack(std::uint64_t seed,
                                   unsigned lossy_sessions) {
  ProtocolAttackReport report;
  report.attack = "desync";
  World w = make_world(seed);

  w.channel->set_adversary([](net::Direction d, const net::Message& m) {
    return (d == net::Direction::kAtoB &&
            m.type == net::MessageType::kAuthConfirm)
               ? net::Verdict::drop()
               : net::Verdict::pass();
  });
  for (unsigned i = 1; i <= lossy_sessions; ++i) {
    (void)honest_session(w, i, i);
  }
  w.channel->set_adversary(nullptr);
  report.honest_parties_recovered = honest_session(w, 100, 1000);
  // The attacker's goal was a permanent wedge.
  report.attacker_succeeded = !report.honest_parties_recovered;
  return report;
}

ProtocolAttackReport forgery_scan(std::uint64_t seed) {
  ProtocolAttackReport report;
  report.attack = "forgery-scan";
  World w = make_world(seed);

  // Capture one genuine response to mutate.
  const auto request = w.verifier->start(1, 100);
  const auto genuine = w.device->handle_request(request);
  if (!genuine) {
    report.honest_parties_recovered = false;
    return report;
  }

  for (std::size_t byte = 0; byte < genuine->payload.size(); ++byte) {
    net::Message forged = *genuine;
    forged.payload[byte] ^= 0x01;
    const auto outcome = w.verifier->process_response(forged);
    if (outcome.status == core::AuthStatus::kOk) {
      report.attacker_succeeded = true;
      break;
    }
  }

  // Deliver the genuine response so the pair finishes cleanly.
  if (!report.attacker_succeeded) {
    const auto outcome = w.verifier->process_response(*genuine);
    report.honest_parties_recovered =
        outcome.status == core::AuthStatus::kOk && outcome.confirm &&
        w.device->handle_confirm(*outcome.confirm) == core::AuthStatus::kOk;
  }
  return report;
}

std::vector<ProtocolAttackReport> run_protocol_battery(std::uint64_t seed) {
  return {replay_attack(seed), mitm_session_graft(seed), desync_attack(seed),
          forgery_scan(seed)};
}

}  // namespace neuropuls::attacks
