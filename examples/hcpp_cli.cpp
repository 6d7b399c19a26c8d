// Scriptable command-line driver for a full HCPP deployment — useful for
// exploring the system interactively or replaying scenario scripts.
//
//   $ ./hcpp_cli              # reads commands from stdin
//   $ echo "store 16
//   keywords
//   retrieve category:imaging
//   emergency dr-on-duty category:imaging
//   audit
//   stats" | ./hcpp_cli
//
// Commands:
//   store <n>                 generate n PHI files and run §IV.B storage
//   store attach <dir>        attach the persistent account store (src/store)
//   store stats               segment/record/byte counts of the attached store
//   store compact             fold dead versions into fresh segments
//   store verify              self-check frames + map/store differential oracle
//   sse add <name> <kw...>    §12 dynamic UPDATE: add one file, O(delta)
//   sse del <id>              §12 dynamic UPDATE: tombstone one file id
//   sse compact               fold the update log into a fresh packed index
//   sse stats                 update-chain epoch / counters / pending entries
//   keywords                  list the patient's keyword dictionary
//   retrieve <kw>             §IV.D common-case retrieval
//   family <kw>               §IV.E.1 family emergency retrieval
//   emergency <physician> <kw>  full §IV.E.2 P-device flow
//   mhi register <dr> <day> <kw>  park a §13 standing trapdoor on the hub
//   mhi ingest <day> [kw...]  stream one vital-sign window (amortized PEKS)
//   mhi match <dr> <day>      drain + decrypt the physician's queued hits
//   mhi stats                 obs MHI counters + the P-device's stream epoch
//   onduty <physician> on|off   edit the published on-duty list
//   revoke family|pdevice     §IV.C REVOKE
//   audit                     verify RD/TR records (§V.A)
//   ledger verify             chain-verify both audit ledgers vs anchors
//   ledger proof <seq>        Merkle inclusion proof for one RD entry
//   ledger anchor             anchor the current epoch hospital→state→federal
//   ledger show               entries, anchors and pending patient alerts
//   stats                     traffic + transport delivery accounting
//   metrics [json|prom]       dump the metrics registry snapshot
//   trace on|off|show|clear   protocol span tracing with crypto-op counts
//   help / quit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/core/setup.h"
#include "src/obs/export.h"
#include "src/sim/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

using namespace hcpp;
using namespace hcpp::core;

namespace {

void cmd_store(Deployment& d, size_t n) {
  d.patient->add_files(generate_phi_collection(
      n, d.patient->rng(),
      d.patient->files().empty() ? 1 : d.patient->files().back().id + 1));
  bool ok = d.patient->try_store_phi(*d.sserver).ok() &&
            assign_privilege(*d.patient, *d.family, d.mu_family) &&
            assign_privilege(*d.patient, *d.pdevice, d.mu_pdevice);
  std::printf("stored %zu files total -> %s\n", d.patient->files().size(),
              ok ? "ok" : "FAILED");
}

// `store attach|stats|compact|verify` — the persistent account store
// (src/store) behind the deployment's S-server, mirroring the `ledger`
// subcommand family.
void cmd_store_sub(Deployment& d, const std::string& sub,
                   std::istringstream& in) {
  core::SServer& s = *d.sserver;
  if (sub == "attach") {
    std::string dir;
    in >> dir;
    if (dir.empty()) {
      std::printf("usage: store attach <dir>\n");
      return;
    }
    hcpp::store::StoreRecoveryReport rec;
    if (!s.attach_store(dir, &rec)) {
      std::printf("attach FAILED (%s not writable?)\n", dir.c_str());
      return;
    }
    std::printf("attached %s: recovered %llu records (%llu tombstones) from "
                "%zu segment(s), %llu torn bytes%s; %zu account(s) live\n",
                dir.c_str(), static_cast<unsigned long long>(rec.records),
                static_cast<unsigned long long>(rec.tombstones), rec.segments,
                static_cast<unsigned long long>(rec.torn_bytes),
                rec.tail_discarded ? " (torn tail truncated)" : "",
                s.account_count());
    return;
  }
  if (!s.has_store()) {
    std::printf("no store attached ('store attach <dir>' first)\n");
    return;
  }
  if (sub == "stats") {
    hcpp::store::StoreStats st = s.account_store().stats();
    std::printf("store %s: %zu segment(s), %zu live record(s), %zu "
                "tombstone(s)\n",
                s.account_store().dir().c_str(), st.segments, st.live_records,
                st.tombstones);
    std::printf("  bytes: %llu live / %llu dead / %llu total; last version "
                "%llu; %llu compaction(s)\n",
                static_cast<unsigned long long>(st.live_bytes),
                static_cast<unsigned long long>(st.dead_bytes),
                static_cast<unsigned long long>(st.total_bytes),
                static_cast<unsigned long long>(st.last_version),
                static_cast<unsigned long long>(st.compactions));
  } else if (sub == "compact") {
    hcpp::store::CompactionReport rep = s.account_store().compact();
    std::printf("compacted: %zu -> %zu segment(s), reclaimed %llu bytes "
                "(%zu live records kept, %zu tombstones dropped)\n",
                rep.segments_before, rep.segments_after,
                static_cast<unsigned long long>(rep.reclaimed_bytes),
                rep.live_records, rep.tombstones_dropped);
  } else if (sub == "verify") {
    bool frames_ok = s.account_store().self_check();
    bool oracle_ok = s.store_consistent();
    std::printf("frames: %s; map/store differential oracle: %s -> %s\n",
                frames_ok ? "ok" : "CORRUPT", oracle_ok ? "ok" : "DIVERGED",
                frames_ok && oracle_ok ? "ok" : "FAILED");
  } else {
    std::printf("usage: store <n> | store attach <dir>|stats|compact|"
                "verify\n");
  }
}

// `sse add|del|compact|stats` — the DESIGN.md §12 dynamic forward-private
// update layer: per-file changes land as O(delta) log inserts instead of
// re-running `store <n>`'s whole-account upload.
void cmd_sse(Deployment& d, std::istringstream& in) {
  std::string sub;
  in >> sub;
  if (sub == "add") {
    std::string name;
    in >> name;
    std::vector<std::string> kws;
    std::string kw;
    while (in >> kw) kws.push_back(kw);
    if (name.empty()) {
      std::printf("usage: sse add <name> [kw...]\n");
      return;
    }
    if (kws.empty()) kws.push_back("category:general");
    sse::FileId id =
        d.patient->files().empty() ? 1 : d.patient->files().back().id + 1;
    std::string body = "PHI body of " + name;
    sse::PlainFile f{id, name, Bytes(body.begin(), body.end()), kws};
    bool ok = d.patient->try_update_phi(*d.sserver, {std::move(f)}).ok();
    std::printf("UPDATE add file %llu '%s' (%zu keyword(s)) -> %s\n",
                static_cast<unsigned long long>(id), name.c_str(), kws.size(),
                ok ? "ok" : "FAILED");
  } else if (sub == "del") {
    uint64_t id = 0;
    if (!(in >> id)) {
      std::printf("usage: sse del <file-id>\n");
      return;
    }
    std::vector<sse::FileId> rm = {id};
    bool ok = d.patient->try_update_phi(*d.sserver, {}, rm).ok();
    std::printf("UPDATE delete file %llu -> %s\n",
                static_cast<unsigned long long>(id), ok ? "ok" : "FAILED");
  } else if (sub == "compact") {
    const sse::UpdateState& st = d.patient->update_state();
    uint64_t pending = 0;
    for (const auto& [kw, c] : st.counters) pending += c;
    bool ok = d.patient->try_compact_phi(*d.sserver).ok();
    std::printf("COMPACT folded %llu log entr%s -> %s (epoch now %llu)\n",
                static_cast<unsigned long long>(pending),
                pending == 1 ? "y" : "ies", ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(
                    d.patient->update_state().epoch));
  } else if (sub == "stats") {
    const sse::UpdateState& st = d.patient->update_state();
    uint64_t pending = 0;
    for (const auto& [kw, c] : st.counters) pending += c;
    std::printf("update chains: epoch %llu, %zu keyword(s) with pending "
                "entries, %llu log entr%s since last compaction; %zu file(s) "
                "total\n",
                static_cast<unsigned long long>(st.epoch), st.counters.size(),
                static_cast<unsigned long long>(pending),
                pending == 1 ? "y" : "ies", d.patient->files().size());
    obs::Snapshot snap = obs::global().snapshot();
    std::printf("lifetime: %llu ADDs, %llu DELETEs, %llu dynamic searches, "
                "%llu compaction(s)\n",
                static_cast<unsigned long long>(
                    snap.counter(obs::kSseUpdateAdd)),
                static_cast<unsigned long long>(
                    snap.counter(obs::kSseUpdateDelete)),
                static_cast<unsigned long long>(
                    snap.counter(obs::kSseDynSearch)),
                static_cast<unsigned long long>(
                    snap.counter(obs::kSseCompactions)));
  } else {
    std::printf("usage: sse add <name> [kw...] | sse del <id> | "
                "sse compact | sse stats\n");
  }
}

void cmd_retrieve(Deployment& d, const std::string& kw) {
  std::vector<std::string> kws = {kw};
  auto files = d.patient->try_retrieve(*d.sserver, kws).value_or({});
  std::printf("%zu file(s):", files.size());
  for (const auto& f : files) std::printf(" %s", f.name.c_str());
  std::printf("\n");
}

void cmd_family(Deployment& d, const std::string& kw) {
  std::vector<std::string> kws = {kw};
  auto files = d.family->try_emergency_retrieve(*d.sserver, kws).value_or({});
  std::printf("family retrieved %zu file(s)\n", files.size());
}

void cmd_emergency(Deployment& d, const std::string& physician,
                   const std::string& kw) {
  Physician* doc = nullptr;
  if (physician == d.on_duty->id()) doc = d.on_duty.get();
  if (physician == d.off_duty->id()) doc = d.off_duty.get();
  if (doc == nullptr) {
    std::printf("unknown physician '%s' (try %s or %s)\n", physician.c_str(),
                d.on_duty->id().c_str(), d.off_duty->id().c_str());
    return;
  }
  d.pdevice->press_emergency_button();
  auto pass = doc->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  if (!pass.ok()) {
    std::printf("A-server denied the passcode (off duty?)\n");
    return;
  }
  if (!d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device) ||
      !d.pdevice->enter_passcode(doc->id(), pass.value().nonce)) {
    std::printf("P-device rejected the passcode\n");
    return;
  }
  std::vector<std::string> kws = {kw};
  auto files = d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({});
  std::printf("P-device retrieved %zu file(s); RD records: %zu; patient "
              "alerts: %d\n",
              files.size(), d.pdevice->rd_ledger().size(),
              d.pdevice->alert_count());
}

// `mhi register|ingest|match|stats` — the DESIGN.md §13 streaming pipeline:
// standing trapdoor registrations on the S-server's hub, amortized-pairing
// window ingest from the P-device, and real-time hit delivery. The role
// epoch is IDr = <day>|emergency|gainesville; rolling the day rolls the
// epoch on both sides.
Physician* find_physician(Deployment& d, const std::string& id) {
  if (id == d.on_duty->id()) return d.on_duty.get();
  if (id == d.off_duty->id()) return d.off_duty.get();
  std::printf("unknown physician '%s' (try %s or %s)\n", id.c_str(),
              d.on_duty->id().c_str(), d.off_duty->id().c_str());
  return nullptr;
}

// Hits queued at the hub for the deployment's two physicians.
size_t pending_mhi_hits(const Deployment& d) {
  const MhiStreamHub& hub = d.sserver->mhi_hub();
  return hub.pending_hits(d.on_duty->id()) + hub.pending_hits(d.off_duty->id());
}

void cmd_mhi(Deployment& d, std::istringstream& in) {
  auto role_for = [](const std::string& day) {
    return mhi_role_id(day, "emergency", "gainesville");
  };
  std::string sub;
  in >> sub;
  if (sub == "register") {
    std::string dr, day, kw;
    in >> dr >> day >> kw;
    if (kw.empty()) {
      std::printf("usage: mhi register <dr> <day> <kw>\n");
      return;
    }
    Physician* doc = find_physician(d, dr);
    if (doc == nullptr) return;
    std::string role = role_for(day);
    auto key = doc->try_request_role_key(*d.aserver, role);
    if (!key.ok()) {
      std::printf("A-server denied the role key (off duty?)\n");
      return;
    }
    bool ok = doc->try_register_mhi(*d.sserver, role, key.value(), kw).ok();
    std::printf("standing query '%s' for %s under %s -> %s\n", kw.c_str(),
                dr.c_str(), role.c_str(), ok ? "registered" : "FAILED");
  } else if (sub == "ingest") {
    std::string day;
    in >> day;
    if (day.empty()) {
      std::printf("usage: mhi ingest <day> [kw...]\n");
      return;
    }
    std::vector<std::string> kws;
    std::string kw;
    while (in >> kw) kws.push_back(kw);
    MhiWindow win = generate_mhi_window(day, 16, d.patient->rng(), 0.1);
    bool ok = d.pdevice
                  ->try_stream_mhi(*d.aserver, *d.sserver, role_for(day), win,
                                   kws)
                  .ok();
    std::printf("streamed window for %s (%zu extra keyword(s)) -> %s; "
                "%zu window(s) stored, %zu hit(s) pending\n",
                day.c_str(), kws.size(), ok ? "ok" : "FAILED",
                d.sserver->mhi_entry_count(),
                pending_mhi_hits(d));
  } else if (sub == "match") {
    std::string dr, day;
    in >> dr >> day;
    if (day.empty()) {
      std::printf("usage: mhi match <dr> <day>\n");
      return;
    }
    Physician* doc = find_physician(d, dr);
    if (doc == nullptr) return;
    std::string role = role_for(day);
    auto key = doc->try_request_role_key(*d.aserver, role);
    if (!key.ok()) {
      std::printf("A-server denied the role key (off duty?)\n");
      return;
    }
    std::vector<MhiWindow> hits =
        doc->try_fetch_mhi_hits(*d.sserver, role, key.value()).value_or({});
    std::printf("%zu matched window(s) for %s:", hits.size(), dr.c_str());
    for (const MhiWindow& w : hits) {
      std::printf(" %s(%zu samples)", w.day.c_str(), w.samples.size());
    }
    std::printf("\n");
  } else if (sub == "stats") {
    const MhiStreamHub& hub = d.sserver->mhi_hub();
    obs::Snapshot snap = obs::global().snapshot();
    std::printf("hub: %llu window(s) ingested, %llu (registration, tag) "
                "pair(s) tested, %llu hit(s), %zu pending\n",
                static_cast<unsigned long long>(
                    snap.counter(obs::kMhiWindowsIngested)),
                static_cast<unsigned long long>(
                    snap.counter(obs::kMhiTagsTested)),
                static_cast<unsigned long long>(snap.counter(obs::kMhiHits)),
                pending_mhi_hits(d));
    std::printf("registrations: %zu standing, %llu expired by rollover; "
                "%zu window(s) in role buckets\n",
                hub.registration_count(),
                static_cast<unsigned long long>(
                    snap.counter(obs::kMhiExpiredRegistrations)),
                d.sserver->mhi_entry_count());
    std::string epoch = d.pdevice->mhi_stream_epoch();
    std::printf("P-device stream epoch: %s\n",
                epoch.empty() ? "(none — no window streamed yet)"
                              : epoch.c_str());
  } else {
    std::printf("usage: mhi register <dr> <day> <kw> | mhi ingest <day> "
                "[kw...] | mhi match <dr> <day> | mhi stats\n");
  }
}

void cmd_audit(Deployment& d) {
  std::vector<std::string> all = d.all_keywords();
  std::set<std::string> permitted(all.begin(), all.end());
  AuditReport report =
      audit(d.aserver->pub(), d.aserver->id(),
            d.aserver->trace_ledger().events(), d.pdevice->rd_ledger().events(),
            permitted);
  std::printf("accountable:");
  for (const auto& id : report.accountable) std::printf(" %s", id.c_str());
  std::printf("\nimproper searchers:");
  for (const auto& id : report.improper_searchers) {
    std::printf(" %s", id.c_str());
  }
  std::printf("\ninconsistencies: %zu (bad RD sig %zu, RD without TR %zu, "
              "bad TR sig %zu)\n",
              report.inconsistencies(), report.bad_rd_signatures,
              report.rd_without_trace, report.bad_trace_signatures);
}

/// Next epoch to anchor for a ledger: one past the newest anchored epoch.
uint64_t next_epoch(const hcpp::ledger::Ledger& led) {
  const hcpp::ledger::AnchoredCheckpoint* last = led.last_anchor();
  return last == nullptr ? 0 : last->cp.epoch + 1;
}

void cmd_ledger(Deployment& d, std::istringstream& in) {
  namespace lg = hcpp::ledger;
  std::string sub;
  in >> sub;
  lg::Ledger& tr = d.aserver->trace_ledger();
  lg::Ledger& rd = d.pdevice->rd_ledger();
  if (sub == "verify") {
    std::vector<std::string> all = d.all_keywords();
    std::set<std::string> permitted(all.begin(), all.end());
    LedgerAuditReport rep =
        audit_ledgers(d.aserver->pub(), d.aserver->id(), tr, rd,
                      d.anchors->authority_ids(), permitted);
    std::printf("TR chain: %s (checked %llu)\n",
                lg::to_string(rep.trace_chain.defect),
                static_cast<unsigned long long>(rep.trace_chain.checked));
    std::printf("RD chain: %s (checked %llu)\n",
                lg::to_string(rep.rd_chain.defect),
                static_cast<unsigned long long>(rep.rd_chain.checked));
    std::printf("anchors: %s; proofs: %zu checked, %zu bad\n",
                rep.anchors_ok ? "ok" : "BAD SIGNATURE CHAIN",
                rep.proofs_checked, rep.bad_proofs);
    std::printf("records: %zu accountable, %zu inconsistencies -> %s\n",
                rep.records.accountable.size(),
                rep.records.inconsistencies(), rep.ok() ? "ok" : "TAMPERED");
  } else if (sub == "proof") {
    uint64_t seq = UINT64_MAX;
    in >> seq;
    if (seq >= rd.size()) {
      std::printf("usage: ledger proof <seq>  (RD ledger holds %zu entries)\n",
                  rd.size());
      return;
    }
    lg::InclusionProof proof = rd.prove(seq, rd.size());
    Bytes root = rd.merkle_root(rd.size());
    std::printf("RD entry %llu: proof depth %zu, root %s -> %s\n",
                static_cast<unsigned long long>(seq), proof.path.size(),
                hex_encode(root).substr(0, 16).c_str(),
                lg::Ledger::verify_proof(root, proof) ? "verifies"
                                                      : "FAILS");
  } else if (sub == "anchor") {
    auto drive = [&](const char* name, lg::Ledger& led,
                     const std::string& from) {
      uint64_t epoch = next_epoch(led);
      lg::AnchorOutcome out =
          lg::anchor_epoch(led, *d.anchors, d.net->transport(), from, epoch,
                           d.net->clock().now());
      std::string verdict = out.anchored     ? "anchored"
                            : out.divergence ? "DIVERGENCE: " + out.detail
                                             : "transient: " + out.detail;
      std::printf("%s ledger epoch %llu: %s\n", name,
                  static_cast<unsigned long long>(epoch), verdict.c_str());
    };
    drive("TR", tr, d.aserver->id());
    drive("RD", rd, d.pdevice->id());
  } else if (sub == "show") {
    auto show = [](const char* name, const lg::Ledger& led) {
      std::printf("%s ledger '%s': %zu entries, %zu anchors, %zu pending "
                  "notifications, head %s\n",
                  name, led.id().c_str(), led.size(), led.anchors().size(),
                  led.pending_notifications(),
                  hex_encode(led.head_hash()).substr(0, 16).c_str());
      for (const lg::AnchoredCheckpoint& a : led.anchors()) {
        std::printf("  anchor epoch %llu: %llu entries, %zu sigs\n",
                    static_cast<unsigned long long>(a.cp.epoch),
                    static_cast<unsigned long long>(a.cp.count),
                    a.sigs.size());
      }
    };
    show("TR", tr);
    show("RD", rd);
  } else {
    std::printf("usage: ledger verify|proof <seq>|anchor|show\n");
  }
}

void cmd_stats(Deployment& d) {
  sim::TrafficStats t = d.net->total();
  std::printf("total: %llu messages, %llu bytes; simulated clock %.2f ms\n",
              static_cast<unsigned long long>(t.messages),
              static_cast<unsigned long long>(t.bytes),
              static_cast<double>(d.net->clock().now()) / 1e6);
  sim::DeliveryStats ds = d.net->transport().total();
  std::printf("transport: %llu requests, %llu attempts, %llu retries, "
              "%llu succeeded, %llu rejected, %llu gave up, %llu dup "
              "suppressed, %llu responses lost\n",
              static_cast<unsigned long long>(ds.requests),
              static_cast<unsigned long long>(ds.attempts),
              static_cast<unsigned long long>(ds.retries),
              static_cast<unsigned long long>(ds.succeeded),
              static_cast<unsigned long long>(ds.rejected),
              static_cast<unsigned long long>(ds.gave_up),
              static_cast<unsigned long long>(ds.duplicates_suppressed),
              static_cast<unsigned long long>(ds.responses_lost));
  obs::Snapshot snap = obs::global().snapshot();
  std::printf("crypto: %llu pairings (+%llu fixed-base, %llu products), "
              "%llu point muls, %llu hash-to-point\n",
              static_cast<unsigned long long>(snap.counter(obs::kPairing)),
              static_cast<unsigned long long>(
                  snap.counter(obs::kPairingFixed)),
              static_cast<unsigned long long>(
                  snap.counter(obs::kPairingProduct)),
              static_cast<unsigned long long>(snap.counter(obs::kPointMul)),
              static_cast<unsigned long long>(
                  snap.counter(obs::kHashToPoint)));
  std::printf("cluster: %llu failovers (S-group), %llu failovers "
              "(A-cluster), %llu mirror writes, %llu syncs\n",
              static_cast<unsigned long long>(
                  snap.counter(obs::kSGroupFailover)),
              static_cast<unsigned long long>(
                  snap.counter(obs::kAClusterFailover)),
              static_cast<unsigned long long>(
                  snap.counter(obs::kSGroupMirrorWrites)),
              static_cast<unsigned long long>(snap.counter(obs::kSGroupSync)));
}

void cmd_metrics(const std::string& format) {
  obs::Snapshot snap = obs::global().snapshot();
  if (format == "prom") {
    std::fputs(obs::to_prometheus(snap).c_str(), stdout);
  } else {
    std::fputs(obs::to_json(snap).c_str(), stdout);
    std::fputc('\n', stdout);
  }
}

void cmd_trace(Deployment& d, const std::string& sub) {
  obs::Tracer& tracer = obs::global().tracer();
  if (sub == "on") {
    tracer.enable(d.net->clock());
    std::printf("tracing on\n");
  } else if (sub == "off") {
    tracer.disable();
    std::printf("tracing off\n");
  } else if (sub == "clear") {
    tracer.clear();
    std::printf("trace buffer cleared\n");
  } else if (sub == "show") {
    std::string text = tracer.format();
    if (text.empty()) {
      std::printf("(no spans recorded%s)\n",
                  tracer.enabled() ? "" : "; tracing is off — 'trace on'");
    } else {
      std::fputs(text.c_str(), stdout);
    }
  } else {
    std::printf("usage: trace on|off|show|clear\n");
  }
}

}  // namespace

int main() {
  // All instrumented call sites feed the process-wide registry from here on.
  obs::attach(&obs::global());
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  Deployment d = Deployment::create(cfg);
  std::printf("hcpp_cli ready (8 files pre-stored; physicians: %s on duty, "
              "%s off duty). 'help' for commands.\n",
              d.on_duty->id().c_str(), d.off_duty->id().c_str());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    try {
      if (cmd == "store") {
        std::string arg;
        in >> arg;
        bool numeric = !arg.empty();
        for (char c : arg) numeric = numeric && c >= '0' && c <= '9';
        if (arg.empty() || numeric) {
          size_t n = arg.empty() ? 0 : std::stoull(arg);
          cmd_store(d, n == 0 ? 8 : n);
        } else {
          cmd_store_sub(d, arg, in);
        }
      } else if (cmd == "sse") {
        cmd_sse(d, in);
      } else if (cmd == "keywords") {
        for (const std::string& kw : d.all_keywords()) {
          std::printf("  %s\n", kw.c_str());
        }
      } else if (cmd == "retrieve") {
        std::string kw;
        in >> kw;
        cmd_retrieve(d, kw);
      } else if (cmd == "family") {
        std::string kw;
        in >> kw;
        cmd_family(d, kw);
      } else if (cmd == "emergency") {
        std::string doc, kw;
        in >> doc >> kw;
        cmd_emergency(d, doc, kw);
      } else if (cmd == "mhi") {
        cmd_mhi(d, in);
      } else if (cmd == "onduty") {
        std::string doc, state;
        in >> doc >> state;
        d.aserver->set_on_duty(doc, state == "on");
        std::printf("%s is now %s duty\n", doc.c_str(),
                    state == "on" ? "on" : "off");
      } else if (cmd == "revoke") {
        std::string who;
        in >> who;
        size_t slot = (who == "family") ? kFamilySlot : kPDeviceSlot;
        std::printf("revoke %s -> %s\n", who.c_str(),
                    d.patient->try_revoke_member(*d.sserver, slot).ok() ? "ok"
                                                               : "FAILED");
      } else if (cmd == "audit") {
        cmd_audit(d);
      } else if (cmd == "ledger") {
        cmd_ledger(d, in);
      } else if (cmd == "stats") {
        cmd_stats(d);
      } else if (cmd == "metrics") {
        std::string format;
        in >> format;
        cmd_metrics(format);
      } else if (cmd == "trace") {
        std::string sub;
        in >> sub;
        cmd_trace(d, sub);
      } else if (cmd == "help") {
        std::printf(
            "store <n> | store attach <dir>|stats|compact|verify | "
            "sse add <name> [kw...]|del <id>|compact|stats | "
            "keywords | retrieve <kw> | family <kw> | "
            "emergency <dr> <kw> | "
            "mhi register <dr> <day> <kw>|ingest <day> [kw...]|"
            "match <dr> <day>|stats | onduty <dr> on|off | revoke "
            "family|pdevice | audit | ledger verify|proof <seq>|anchor|show "
            "| stats | metrics [json|prom] | trace on|off|show|clear | "
            "quit\n");
      } else {
        std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}
