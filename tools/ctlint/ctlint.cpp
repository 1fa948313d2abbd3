// ctlint — secret-hygiene and concurrency lint for the NEUROPULS tree.
//
// A deliberately small static checker (no libclang): a line tokenizer
// with cross-line comment/string state plus a rule engine. It exists to
// turn the repo's constant-time / wipe / locking discipline into a build
// failure instead of a review comment. Registered as ctest cases: the
// source pass over `src/` (with `tools/ctlint/baseline.txt`), the
// self-test over `tools/ctlint/fixtures/`, and one per-pass self-test
// per concurrency fixture.
//
// Annotations (in comments):
//   // ctlint:secret              marks the variable declared on this line
//   // ctlint:secret(name)        ...or names it explicitly
//   // ctlint:allow(rule) reason  suppresses `rule` on this or next line;
//                                 the reason is mandatory
//   // ctlint:expect(rule)        fixture-only: self-test asserts `rule`
//                                 fires on this line
//
// Rules:
//   std-rand            libc randomness (rand/srand/random/...) anywhere;
//                       all randomness must come from the DRBGs
//   raw-memset-wipe     memset/bzero anywhere; wiping must go through
//                       crypto::secure_wipe (compiler barrier)
//   secret-compare      ==/!=/memcmp/std::equal touching a secret-marked
//                       identifier; use crypto::ct_equal
//   secret-index        array subscript indexed by a secret-marked
//                       identifier (cache-timing oracle)
//   missing-wipe        a secret-marked buffer whose enclosing scope never
//                       wipes it (secure_wipe(name) / name.wipe());
//                       SecretBytes- and SecretVector-typed declarations
//                       are exempt (they wipe on destruction)
//
// Concurrency rules (keyed on the annotated wrappers in common/mutex.hpp
// — MutexLock/ShardLock declarations are acquisitions,
// `.unlock()`/`.lock()` toggle them, scope exit releases them; the
// analysis is lexical, per function — call-graph effects are TSan's job):
//   lock-order          builds the static acquisition graph (held lock ->
//                       newly acquired lock, nodes keyed by the mutex
//                       member name) across all linted files and fails on
//                       cycles; also fails on a ShardLock taken while an
//                       engine lock (sched_mutex / admit_mutex) is
//                       held — shard locks are leaves of the documented
//                       order
//   blocking-under-lock park()/channel receive*()/operator new/make_*
//                       reachable while a scoped lock is live: blocking
//                       or allocator calls turn a short critical section
//                       into a convoy; likewise file I/O (write/pwrite/
//                       fwrite/write_all/fsync/fdatasync/flush) — a
//                       syscall, let alone a disk flush, under a lock
//                       stalls every thread behind it (the WAL group
//                       commit encodes under the shard lock and performs
//                       all I/O outside it)
//   atomic-misuse       a relaxed store/RMW paired with a non-relaxed
//                       load of the same atomic member in one file
//                       (inconsistent ordering is either a missing fence
//                       or an unneeded one), and raw `volatile` used for
//                       synchronization (asm-clobber lines are exempt)
//   admission-alloc     container-growth calls (push_back/emplace_back/
//                       resize/reserve/insert/emplace) while the
//                       admission controller's lock (admission_mutex_)
//                       is held — the admission fast path is the gate
//                       every flood hammers and must stay allocation-
//                       free (tables are preallocated in the
//                       constructor); growth calls allocate even though
//                       no `new`/make_* token appears at the call site
//   fleet-growth        push_back/emplace_back into a member container
//                       (`name_`) inside a per-device loop (a loop whose
//                       header mentions device/fleet vocabulary): a
//                       fleet-lifetime container growing once per device
//                       is O(fleet) memory and breaks the simulator's
//                       bounded-memory contract — accumulate into a
//                       bounded local staging buffer (flushed per chunk/
//                       wave) or a streaming estimator instead
//
// Exit codes: 0 clean, 1 violations/self-test failure, 2 usage error
// (including a missing lint root or an empty fixture/source set — the
// lint fails loudly rather than passing on nothing).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const std::set<std::string> kRuleNames = {
    "std-rand",       "raw-memset-wipe",     "secret-compare",
    "secret-index",   "missing-wipe",        "lock-order",
    "blocking-under-lock", "atomic-misuse",  "admission-alloc",
    "fleet-growth"};

const std::set<std::string> kBannedRandom = {
    "rand", "srand", "rand_r", "random", "srandom", "drand48", "lrand48"};

const std::set<std::string> kBannedWipe = {"memset", "bzero"};

// common/secret.hpp types whose destructor wipes the buffer they hold.
const std::set<std::string> kSelfWipingTypes = {"SecretBytes",
                                                "SecretVector"};

struct Violation {
  std::string file;  // as given on the command line / relative path
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct Token {
  std::string text;
  std::size_t col = 0;
};

// One source line after comment/string stripping, plus its annotations.
struct Line {
  std::string code;              // comments and string literals blanked
  std::string comment;           // concatenated comment text
  std::vector<Token> tokens;     // identifier and operator tokens
  int depth_before = 0;          // brace depth entering the line
  int depth_after = 0;           // brace depth leaving the line
};

struct Annotation {
  std::size_t line = 0;
  std::string rule;   // for allow/expect
  std::string name;   // for secret(name)
  bool has_reason = false;
};

struct ParsedFile {
  std::vector<Line> lines;                 // 0-based; line N is lines[N-1]
  std::vector<Annotation> secrets;
  std::vector<Annotation> allows;
  std::vector<Annotation> expects;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void tokenize(Line& line) {
  const std::string& s = line.code;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < s.size() && ident_char(s[j])) ++j;
      line.tokens.push_back({s.substr(i, j - i), i});
      i = j;
    } else if (c == '=' && i + 1 < s.size() && s[i + 1] == '=') {
      line.tokens.push_back({"==", i});
      i += 2;
    } else if (c == '!' && i + 1 < s.size() && s[i + 1] == '=') {
      line.tokens.push_back({"!=", i});
      i += 2;
    } else if (c == '<' && i + 1 < s.size() && (s[i + 1] == '=')) {
      i += 2;  // <= is not interesting; skip so it can't split oddly
    } else if (c == '>' && i + 1 < s.size() && (s[i + 1] == '=')) {
      i += 2;
    } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
      line.tokens.push_back({"::", i});
      i += 2;
    } else if (c == '[' || c == ']' || c == '(' || c == ')' || c == '.' ||
               c == ',' || c == ';' || c == '=' || c == '{' || c == '}') {
      line.tokens.push_back({std::string(1, c), i});
      ++i;
    } else {
      ++i;
    }
  }
}

// Pulls `ctlint:<kind>(...)` annotations out of a comment string.
void parse_annotations(const std::string& comment, std::size_t line_no,
                       ParsedFile& out) {
  std::size_t pos = 0;
  while ((pos = comment.find("ctlint:", pos)) != std::string::npos) {
    std::size_t p = pos + 7;
    std::string kind;
    while (p < comment.size() && ident_char(comment[p])) kind += comment[p++];
    Annotation ann;
    ann.line = line_no;
    if (p < comment.size() && comment[p] == '(') {
      const std::size_t close = comment.find(')', p);
      if (close != std::string::npos) {
        ann.rule = comment.substr(p + 1, close - p - 1);
        p = close + 1;
      }
    }
    // Anything after the closing paren counts as the reason.
    std::size_t r = p;
    while (r < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[r]))) {
      ++r;
    }
    ann.has_reason = r < comment.size();
    if (kind == "secret") {
      ann.name = ann.rule;  // optional explicit variable name
      ann.rule.clear();
      out.secrets.push_back(ann);
    } else if (kind == "allow") {
      out.allows.push_back(ann);
    } else if (kind == "expect") {
      out.expects.push_back(ann);
    }
    pos = p;
  }
}

ParsedFile parse_file(const fs::path& path) {
  ParsedFile out;
  std::ifstream in(path);
  std::string raw;
  bool in_block_comment = false;
  int depth = 0;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    Line line;
    line.depth_before = depth;
    std::string code, comment;
    std::size_t i = 0;
    while (i < raw.size()) {
      if (in_block_comment) {
        const std::size_t end = raw.find("*/", i);
        if (end == std::string::npos) {
          comment += raw.substr(i);
          i = raw.size();
        } else {
          comment += raw.substr(i, end - i);
          i = end + 2;
          in_block_comment = false;
        }
      } else if (raw.compare(i, 2, "//") == 0) {
        comment += raw.substr(i + 2);
        i = raw.size();
      } else if (raw.compare(i, 2, "/*") == 0) {
        in_block_comment = true;
        i += 2;
      } else if (raw[i] == '"' || raw[i] == '\'') {
        const char quote = raw[i];
        code += ' ';  // blank out the literal
        ++i;
        while (i < raw.size() && raw[i] != quote) {
          if (raw[i] == '\\') ++i;
          ++i;
        }
        if (i < raw.size()) ++i;
      } else {
        if (raw[i] == '{') ++depth;
        if (raw[i] == '}') --depth;
        code += raw[i];
        ++i;
      }
    }
    line.code = std::move(code);
    line.comment = std::move(comment);
    line.depth_after = depth;
    tokenize(line);
    parse_annotations(line.comment, line_no, out);
    out.lines.push_back(std::move(line));
  }
  return out;
}

// The declared-variable heuristic for an unnamed `// ctlint:secret`: the
// identifier directly before `=`, `(`, `{`, or `;` on the declaration line
// (skipping closing brackets), i.e. the declarator name.
std::string guess_declared_name(const Line& line) {
  const auto& t = line.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "=" || t[i].text == "(" || t[i].text == "{" ||
        t[i].text == ";") {
      for (std::size_t j = i; j-- > 0;) {
        const std::string& prev = t[j].text;
        if (prev == ")" || prev == "]") continue;
        if (std::isalpha(static_cast<unsigned char>(prev[0])) ||
            prev[0] == '_') {
          return prev;
        }
        break;
      }
    }
  }
  return {};
}

struct SecretDecl {
  std::string name;
  std::size_t line = 0;   // 1-based declaration line
  int depth = 0;          // brace depth of the declaration
  bool self_wiping = false;  // wipes on destruction (kSelfWipingTypes)
};

bool allowed(const ParsedFile& file, std::size_t line_no,
             const std::string& rule) {
  for (const auto& a : file.allows) {
    if (a.rule != rule || !a.has_reason) continue;
    if (a.line == line_no || a.line + 1 == line_no) return true;
  }
  return false;
}

void check_file(const std::string& display_path, const ParsedFile& file,
                std::vector<Violation>& out) {
  // Collect secret declarations first: every rule below keys on them.
  std::vector<SecretDecl> secrets;
  for (const auto& ann : file.secrets) {
    if (ann.line == 0 || ann.line > file.lines.size()) continue;
    const Line& decl_line = file.lines[ann.line - 1];
    SecretDecl decl;
    decl.line = ann.line;
    decl.depth = decl_line.depth_before;
    decl.name = !ann.name.empty() ? ann.name : guess_declared_name(decl_line);
    decl.self_wiping = std::any_of(
        decl_line.tokens.begin(), decl_line.tokens.end(),
        [](const Token& t) { return kSelfWipingTypes.count(t.text) > 0; });
    if (decl.name.empty()) {
      out.push_back({display_path, ann.line, "missing-wipe",
                     "ctlint:secret annotation names no variable (use "
                     "ctlint:secret(name))"});
      continue;
    }
    secrets.push_back(std::move(decl));
  }

  std::set<std::string> secret_names;
  for (const auto& s : secrets) secret_names.insert(s.name);

  // One finding per (line, rule): a line like `memcmp(a, b, n) == 0`
  // trips the same rule twice but is one defect.
  std::set<std::pair<std::size_t, std::string>> emitted;
  auto emit = [&](std::size_t line_no, const std::string& rule,
                  std::string message) {
    if (allowed(file, line_no, rule)) return;
    if (!emitted.insert({line_no, rule}).second) return;
    out.push_back({display_path, line_no, rule, std::move(message)});
  };

  for (std::size_t idx = 0; idx < file.lines.size(); ++idx) {
    const Line& line = file.lines[idx];
    const std::size_t line_no = idx + 1;
    const auto& toks = line.tokens;

    bool line_touches_secret = false;
    for (const auto& t : toks) {
      if (secret_names.count(t.text)) {
        line_touches_secret = true;
        break;
      }
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;

      if (kBannedRandom.count(t)) {
        emit(line_no, "std-rand",
             "libc randomness '" + t + "' is banned; use ChaChaDrbg");
      }
      if (kBannedWipe.count(t)) {
        emit(line_no, "raw-memset-wipe",
             "raw '" + t +
                 "' can be optimized out; use crypto::secure_wipe");
      }
      if (line_touches_secret) {
        if (t == "==" || t == "!=") {
          emit(line_no, "secret-compare",
               "'" + t +
                   "' on a secret-marked buffer leaks timing; use "
                   "crypto::ct_equal");
        }
        if (t == "memcmp") {
          emit(line_no, "secret-compare",
               "memcmp on a secret-marked buffer leaks timing; use "
               "crypto::ct_equal");
        }
        if (t == "equal" && i > 0 && toks[i - 1].text == "::") {
          emit(line_no, "secret-compare",
               "std::equal on a secret-marked buffer leaks timing; use "
               "crypto::ct_equal");
        }
      }
    }

    // secret-index: a '[' ... ']' span whose interior names a secret.
    int bracket = 0;
    bool flagged_index = false;
    for (const auto& t : toks) {
      if (t.text == "[") {
        ++bracket;
      } else if (t.text == "]") {
        if (bracket > 0) --bracket;
      } else if (bracket > 0 && !flagged_index &&
                 secret_names.count(t.text)) {
        emit(line_no, "secret-index",
             "array access indexed by secret '" + t.text +
                 "' is a cache-timing oracle");
        flagged_index = true;
      }
    }
  }

  // missing-wipe: from each non-self-wiping declaration to the end of its
  // enclosing scope there must be a `secure_wipe(...name...)` call or a
  // `name.wipe()` call.
  for (const auto& decl : secrets) {
    if (decl.self_wiping) continue;
    bool wiped = false;
    for (std::size_t idx = decl.line - 1; idx < file.lines.size(); ++idx) {
      const Line& line = file.lines[idx];
      if (idx >= decl.line && line.depth_after < decl.depth) break;
      const auto& toks = line.tokens;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text == "secure_wipe") {
          // secure_wipe(... name ...) up to the closing paren.
          int paren = 0;
          for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (toks[j].text == "(") ++paren;
            else if (toks[j].text == ")") {
              if (--paren <= 0) break;
            } else if (toks[j].text == decl.name) {
              wiped = true;
            }
          }
        } else if (toks[i].text == decl.name && i + 2 < toks.size() &&
                   toks[i + 1].text == "." && toks[i + 2].text == "wipe") {
          wiped = true;
        }
      }
      if (wiped) break;
    }
    if (!wiped && !allowed(file, decl.line, "missing-wipe")) {
      out.push_back({display_path, decl.line, "missing-wipe",
                     "secret '" + decl.name +
                         "' is never wiped in its scope; call "
                         "crypto::secure_wipe or use SecretBytes"});
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency passes.
//
// All three key on the annotated wrapper types from common/mutex.hpp. A
// declaration `MutexLock name(arg...)` (likewise ShardLock) is an
// acquisition; the lock's graph node is the last
// identifier of the first constructor argument (`mutex_`, `loop->m` ->
// `m`, `shard.mutex` -> `mutex`), i.e. the mutex member name — the same
// vocabulary the lock-order comment in common/mutex.hpp uses. Tracking
// is lexical and brace-scoped, exactly like the missing-wipe scan: the
// lock dies when the brace depth drops below its declaration depth, and
// `name.unlock()` / `name.lock()` toggle it in between.

const std::set<std::string> kScopedLockTypes = {"MutexLock", "ShardLock"};

// Session-runtime locks that must never be held when entering the CRP
// store: shard locks are leaves of the documented order.
const std::set<std::string> kEngineLockNames = {"sched_mutex", "admit_mutex"};

// Calls that can block (parking, channel receives), run a whole session
// exchange with its PUF evaluations and modexps (the serial session
// drivers), or take the global allocator lock (operator new and the
// std::make_* wrappers).
const std::set<std::string> kBlockingCalls = {
    "park", "receive", "run_serial", "run_auth_session", "run_eke_handshake"};
const std::set<std::string> kAllocCalls = {"make_unique", "make_shared"};

// The admission controller's lock guards the flood-facing fast path:
// under it even *indirect* allocation is banned, so container-growth
// calls (which may reallocate without any `new` at the call site) are
// flagged too. Every table the fast path touches is preallocated in the
// AdmissionController constructor.
const std::set<std::string> kAdmissionLockNames = {"admission_mutex_"};
const std::set<std::string> kGrowthCalls = {"push_back", "emplace_back",
                                            "resize",    "reserve",
                                            "insert",    "emplace"};

// File-I/O calls that hit the kernel — and, for the fsync family, wait
// on the disk — which must never run inside a critical section. The
// durable CRP store's group-commit protocol depends on this split:
// records are *encoded* under the shard lock (memory-only), the buffer
// is swapped out, and every write/fsync happens with no lock held
// (common/io.hpp is where the sanctioned call sites live).
const std::set<std::string> kFileIoCalls = {
    "write", "pwrite", "fwrite", "write_all", "fsync", "fdatasync", "flush"};

const std::set<std::string> kAtomicWriteOps = {
    "store", "fetch_add", "fetch_sub", "fetch_or", "fetch_and", "exchange"};

// The static acquisition graph, accumulated across every linted file:
// (held-lock node -> acquired-lock node) with the first site that
// recorded the edge. Cycle detection runs once after all files parse.
struct LockGraph {
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, std::size_t>>
      edges;
};

bool is_ident(const std::string& t) {
  return !t.empty() &&
         (std::isalpha(static_cast<unsigned char>(t[0])) || t[0] == '_');
}

// A file's tokens flattened into one stream (call syntax regularly spans
// lines), each tagged with its 0-based source line index.
struct FlatToken {
  const std::string* text;
  std::size_t line_idx;
};

void check_concurrency(const std::string& display_path, const ParsedFile& file,
                       LockGraph& graph, std::vector<Violation>& out) {
  std::set<std::pair<std::size_t, std::string>> emitted;
  auto emit = [&](std::size_t line_no, const std::string& rule,
                  std::string message) {
    if (allowed(file, line_no, rule)) return;
    if (!emitted.insert({line_no, rule}).second) return;
    out.push_back({display_path, line_no, rule, std::move(message)});
  };

  std::vector<FlatToken> ft;
  for (std::size_t idx = 0; idx < file.lines.size(); ++idx) {
    for (const auto& tok : file.lines[idx].tokens) {
      ft.push_back({&tok.text, idx});
    }
  }

  struct LiveLock {
    std::string var;   // the scoped-lock variable name
    std::string key;   // graph node: the guarded mutex's member name
    bool shard = false;
    int depth = 0;     // brace depth of the declaration line
    bool held = true;  // false between .unlock() and .lock()
  };
  std::vector<LiveLock> locks;

  // atomic-misuse bookkeeping: file-wide pairing by member name.
  std::map<std::string, std::size_t> relaxed_writes;  // member -> first line
  std::vector<std::pair<std::string, std::size_t>> strong_loads;

  std::size_t cur_line = 0;  // 0-based index of the line being processed
  auto close_lines_through = [&](std::size_t target_idx) {
    while (cur_line < target_idx) {
      const int depth_after = file.lines[cur_line].depth_after;
      locks.erase(std::remove_if(locks.begin(), locks.end(),
                                 [&](const LiveLock& l) {
                                   return l.depth > depth_after;
                                 }),
                  locks.end());
      ++cur_line;
    }
  };

  for (std::size_t k = 0; k < ft.size(); ++k) {
    close_lines_through(ft[k].line_idx);
    const std::string& t = *ft[k].text;
    const std::size_t line_no = ft[k].line_idx + 1;

    // Scoped-lock declaration: `<LockType> name(first_arg...)`.
    if (kScopedLockTypes.count(t) && k + 2 < ft.size() &&
        is_ident(*ft[k + 1].text) && *ft[k + 2].text == "(") {
      std::string key;
      int paren = 1;
      for (std::size_t m = k + 3; m < ft.size() && paren > 0; ++m) {
        const std::string& a = *ft[m].text;
        if (a == "(") {
          ++paren;
        } else if (a == ")") {
          --paren;
        } else if (a == "," && paren == 1) {
          break;  // key comes from the first constructor argument only
        } else if (paren == 1 && is_ident(a) && a != "std") {
          key = a;
        }
      }
      if (!key.empty()) {
        const bool shard = t == "ShardLock";
        for (const auto& held : locks) {
          if (!held.held) continue;
          if (shard && kEngineLockNames.count(held.key)) {
            emit(line_no, "lock-order",
                 "shard lock acquired while engine lock '" + held.key +
                     "' is held; shard locks are leaves of the lock order");
          }
          if (!allowed(file, line_no, "lock-order")) {
            graph.edges.emplace(std::make_pair(held.key, key),
                                std::make_pair(display_path, line_no));
          }
        }
        locks.push_back({*ft[k + 1].text, key, shard,
                         file.lines[ft[k].line_idx].depth_before, true});
      }
    }

    // `name.unlock()` / `name.lock()` on a live scoped lock.
    if (is_ident(t) && k + 3 < ft.size() && *ft[k + 1].text == "." &&
        *ft[k + 3].text == "(" &&
        (*ft[k + 2].text == "unlock" || *ft[k + 2].text == "lock")) {
      for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
        if (it->var == t) {
          it->held = *ft[k + 2].text == "lock";
          break;
        }
      }
    }

    // blocking-under-lock: while any scoped lock is held.
    const LiveLock* held = nullptr;
    for (const auto& l : locks) {
      if (l.held) {
        held = &l;
        break;
      }
    }
    if (held != nullptr) {
      if (kBlockingCalls.count(t) && k + 1 < ft.size() &&
          *ft[k + 1].text == "(") {
        emit(line_no, "blocking-under-lock",
             "'" + t + "' can block while lock '" + held->key +
                 "' is held; release the lock first");
      } else if (kFileIoCalls.count(t) && k + 1 < ft.size() &&
                 *ft[k + 1].text == "(") {
        emit(line_no, "blocking-under-lock",
             "file I/O ('" + t + "') while lock '" + held->key +
                 "' is held; encode into a buffer under the lock and do "
                 "the write/fsync after releasing it");
      } else if (t == "new" || kAllocCalls.count(t)) {
        emit(line_no, "blocking-under-lock",
             "allocation ('" + t + "') while lock '" + held->key +
                 "' is held; the allocator can contend or page-fault");
      }
    }

    // admission-alloc: container growth with the admission lock live.
    // Checked against every held lock (not just the innermost) — the
    // admission mutex is a leaf, but a nested section must not launder
    // the growth call past the rule.
    if (kGrowthCalls.count(t) && k + 1 < ft.size() && *ft[k + 1].text == "(") {
      for (const auto& l : locks) {
        if (l.held && kAdmissionLockNames.count(l.key)) {
          emit(line_no, "admission-alloc",
               "container growth ('" + t + "') while admission lock '" +
                   l.key + "' is held; the admission fast path must stay "
                           "allocation-free — preallocate in the constructor");
          break;
        }
      }
    }

    // atomic-misuse, part 1: classify `.op(...)` atomic accesses.
    if ((t == "load" || kAtomicWriteOps.count(t)) && k >= 2 &&
        *ft[k - 1].text == "." && is_ident(*ft[k - 2].text) &&
        k + 1 < ft.size() && *ft[k + 1].text == "(") {
      const std::string& member = *ft[k - 2].text;
      bool relaxed = false;
      int paren = 1;
      for (std::size_t m = k + 2; m < ft.size() && paren > 0; ++m) {
        const std::string& a = *ft[m].text;
        if (a == "(") {
          ++paren;
        } else if (a == ")") {
          --paren;
        } else if (a == "memory_order_relaxed") {
          relaxed = true;
        }
      }
      if (t == "load") {
        if (!relaxed) strong_loads.push_back({member, line_no});
      } else if (relaxed) {
        relaxed_writes.emplace(member, line_no);
      }
    }

    // atomic-misuse, part 2: raw volatile (asm clobber lines exempt).
    if (t == "volatile" && (k == 0 || *ft[k - 1].text != "asm")) {
      emit(line_no, "atomic-misuse",
           "raw 'volatile' is not inter-thread synchronization; use "
           "std::atomic (sanctioned wipe barriers need ctlint:allow)");
    }
  }

  // atomic-misuse, part 3: pair relaxed writes with non-relaxed loads.
  for (const auto& [member, load_line] : strong_loads) {
    const auto w = relaxed_writes.find(member);
    if (w == relaxed_writes.end()) continue;
    emit(load_line, "atomic-misuse",
         "non-relaxed load of '" + member + "' pairs with a relaxed " +
             "store/RMW (line " + std::to_string(w->second) +
             "); pick one ordering for the member");
  }
}

// ---------------------------------------------------------------------------
// fleet-growth: per-device accumulation into fleet-lifetime containers.
//
// The fleet simulator's memory contract is O(chunk)+O(wave), never
// O(fleet): anything appended once per device into a container that
// outlives the loop accumulates a million entries. The lexical proxy:
// a growth call whose receiver is a member (trailing-underscore name,
// the repo's member convention) inside a loop whose header speaks the
// device vocabulary. Locals (no trailing underscore) are the sanctioned
// staging idiom — bounded by the chunk/wave the loop iterates.

const std::set<std::string> kFleetGrowthCalls = {"push_back", "emplace_back"};

bool device_vocabulary(const std::string& ident) {
  return ident == "dev" || ident == "fleet" ||
         ident.find("device") != std::string::npos;
}

bool member_name(const std::string& ident) {
  return ident.size() >= 2 && ident.back() == '_';
}

void check_fleet_growth(const std::string& display_path,
                        const ParsedFile& file, std::vector<Violation>& out) {
  std::set<std::pair<std::size_t, std::string>> emitted;
  auto emit = [&](std::size_t line_no, std::string message) {
    if (allowed(file, line_no, "fleet-growth")) return;
    if (!emitted.insert({line_no, "fleet-growth"}).second) return;
    out.push_back({display_path, line_no, "fleet-growth", std::move(message)});
  };

  std::vector<FlatToken> ft;
  for (std::size_t idx = 0; idx < file.lines.size(); ++idx) {
    for (const auto& tok : file.lines[idx].tokens) {
      ft.push_back({&tok.text, idx});
    }
  }

  // Brace depths at which a device-vocabulary loop was opened; a loop
  // dies when the depth drops back to its declaration depth (the same
  // lexical scoping the lock tracker uses). Braceless loop bodies are
  // out of scope for this heuristic — the repo style always braces.
  std::vector<int> device_loops;
  std::size_t cur_line = 0;
  auto close_lines_through = [&](std::size_t target_idx) {
    while (cur_line < target_idx) {
      const int depth_after = file.lines[cur_line].depth_after;
      while (!device_loops.empty() && device_loops.back() >= depth_after) {
        device_loops.pop_back();
      }
      ++cur_line;
    }
  };

  for (std::size_t k = 0; k < ft.size(); ++k) {
    close_lines_through(ft[k].line_idx);
    const std::string& t = *ft[k].text;
    const std::size_t line_no = ft[k].line_idx + 1;

    // Loop header scan: `for (...)` / `while (...)` naming a device.
    if ((t == "for" || t == "while") && k + 1 < ft.size() &&
        *ft[k + 1].text == "(") {
      bool device_loop = false;
      int paren = 1;
      for (std::size_t m = k + 2; m < ft.size() && paren > 0; ++m) {
        const std::string& a = *ft[m].text;
        if (a == "(") {
          ++paren;
        } else if (a == ")") {
          --paren;
        } else if (is_ident(a) && device_vocabulary(a)) {
          device_loop = true;
        }
      }
      if (device_loop) {
        device_loops.push_back(file.lines[ft[k].line_idx].depth_before);
      }
      continue;
    }

    if (device_loops.empty()) continue;
    if (!kFleetGrowthCalls.count(t) || k + 1 >= ft.size() ||
        *ft[k + 1].text != "(") {
      continue;
    }
    // Receiver: `member_.push_back(` (the tokenizer drops `->`, so a
    // pointer receiver appears as the identifier directly before the
    // call token).
    std::string receiver;
    if (k >= 2 && *ft[k - 1].text == "." && is_ident(*ft[k - 2].text)) {
      receiver = *ft[k - 2].text;
    } else if (k >= 1 && is_ident(*ft[k - 1].text)) {
      receiver = *ft[k - 1].text;
    }
    if (member_name(receiver)) {
      emit(line_no,
           "'" + receiver + "." + t + "' grows a fleet-lifetime container "
           "inside a per-device loop — O(fleet) memory; stage into a "
           "bounded local flushed per chunk/wave, or use a streaming "
           "estimator (metrics/streaming.hpp)");
    }
  }
}

// Cycle detection over the accumulated acquisition graph: edge A->B is a
// violation when B (transitively) reaches back to A — including the
// self-edge A->A, a lexically visible double-acquire.
void finalize_lock_order(const LockGraph& graph,
                         std::vector<Violation>& out) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [edge, site] : graph.edges) {
    adj[edge.first].push_back(edge.second);
  }
  auto reaches = [&](const std::string& from, const std::string& target) {
    std::vector<std::string> stack{from};
    std::set<std::string> seen;
    while (!stack.empty()) {
      const std::string node = stack.back();
      stack.pop_back();
      if (!seen.insert(node).second) continue;
      if (node == target) return true;
      const auto it = adj.find(node);
      if (it == adj.end()) continue;
      stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
    return false;
  };
  for (const auto& [edge, site] : graph.edges) {
    if (!reaches(edge.second, edge.first)) continue;
    out.push_back(
        {site.first, site.second, "lock-order",
         "lock-order cycle: '" + edge.first + "' -> '" + edge.second +
             "' here, but '" + edge.second +
             "' is (transitively) acquired before '" + edge.first +
             "' elsewhere; pick one order and document it in "
             "common/mutex.hpp"});
  }
}

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

// `missing` counts roots that do not exist at all — callers fail loudly
// on those instead of silently linting nothing (a typo'd path must not
// read as a clean run).
std::vector<fs::path> collect_sources(const std::vector<std::string>& roots,
                                      std::size_t& missing) {
  std::vector<fs::path> files;
  for (const auto& root : roots) {
    const fs::path p(root);
    if (fs::is_regular_file(p)) {
      if (is_source_file(p)) files.push_back(p);
    } else if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && is_source_file(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else {
      std::fprintf(stderr, "ctlint: no such path: %s\n", root.c_str());
      ++missing;
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Baseline format: `<path-suffix>:<rule>:<count>` per line; '#' comments.
// A violation is tolerated when its file path ends with the suffix and the
// per-entry budget is not yet exhausted.
std::map<std::pair<std::string, std::string>, int> load_baseline(
    const std::string& path) {
  std::map<std::pair<std::string, std::string>, int> budget;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ctlint: cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.back()))) {
      line.pop_back();
    }
    if (line.empty()) continue;
    const std::size_t c2 = line.rfind(':');
    const std::size_t c1 = line.rfind(':', c2 == 0 ? 0 : c2 - 1);
    if (c1 == std::string::npos || c2 == std::string::npos || c1 == c2) {
      std::fprintf(stderr, "ctlint: malformed baseline entry: %s\n",
                   line.c_str());
      std::exit(2);
    }
    budget[{line.substr(0, c1), line.substr(c1 + 1, c2 - c1 - 1)}] =
        std::stoi(line.substr(c2 + 1));
  }
  return budget;
}

int run_lint(const std::vector<std::string>& roots,
             const std::string& baseline_path, bool json) {
  auto budget = baseline_path.empty()
                    ? std::map<std::pair<std::string, std::string>, int>{}
                    : load_baseline(baseline_path);
  std::vector<Violation> violations;
  std::size_t missing = 0;
  const auto files = collect_sources(roots, missing);
  if (missing > 0) {
    std::fprintf(stderr, "ctlint: %zu lint root(s) missing; refusing to "
                         "report a clean run\n",
                 missing);
    return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "ctlint: no source files under the given paths; refusing "
                 "to report a clean run\n");
    return 2;
  }
  LockGraph graph;
  for (const auto& file : files) {
    const ParsedFile parsed = parse_file(file);
    check_file(file.generic_string(), parsed, violations);
    check_concurrency(file.generic_string(), parsed, graph, violations);
    check_fleet_growth(file.generic_string(), parsed, violations);
  }
  finalize_lock_order(graph, violations);

  std::vector<Violation> reported;
  for (const auto& v : violations) {
    bool baselined = false;
    for (auto& [key, remaining] : budget) {
      if (remaining > 0 && v.rule == key.second &&
          v.file.size() >= key.first.size() &&
          v.file.compare(v.file.size() - key.first.size(), key.first.size(),
                         key.first) == 0) {
        --remaining;
        baselined = true;
        break;
      }
    }
    if (!baselined) reported.push_back(v);
  }

  if (json) {
    // Machine-readable findings on stdout, human summary on stderr.
    std::printf("[");
    for (std::size_t i = 0; i < reported.size(); ++i) {
      const auto& v = reported[i];
      std::printf("%s\n  {\"file\": \"%s\", \"line\": %zu, \"rule\": \"%s\", "
                  "\"message\": \"%s\"}",
                  i == 0 ? "" : ",", json_escape(v.file).c_str(), v.line,
                  v.rule.c_str(), json_escape(v.message).c_str());
    }
    std::printf("%s]\n", reported.empty() ? "" : "\n");
    std::fprintf(stderr, "ctlint: %zu file(s), %zu violation(s)%s\n",
                 files.size(), reported.size(),
                 violations.size() != reported.size() ? " (after baseline)"
                                                      : "");
  } else {
    for (const auto& v : reported) {
      std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                  v.message.c_str());
    }
    std::printf("ctlint: %zu file(s), %zu violation(s)%s\n", files.size(),
                reported.size(),
                violations.size() != reported.size() ? " (after baseline)"
                                                     : "");
  }
  return reported.empty() ? 0 : 1;
}

// Self-test: every `ctlint:expect(rule)` line must yield exactly that
// violation, and no unexpected violations may appear. This proves each
// rule both fires on bad code and respects suppressions.
int run_self_test(const std::string& fixture_dir) {
  std::size_t missing = 0;
  const auto files = collect_sources({fixture_dir}, missing);
  if (missing > 0 || files.empty()) {
    std::fprintf(stderr, "ctlint: no fixtures under %s\n",
                 fixture_dir.c_str());
    return 2;
  }
  int failures = 0;
  std::size_t checked = 0;
  for (const auto& file : files) {
    const ParsedFile parsed = parse_file(file);
    std::vector<Violation> violations;
    check_file(file.generic_string(), parsed, violations);
    // Concurrency passes run with a per-fixture graph, so each fixture
    // is a self-contained lock-order scenario.
    LockGraph graph;
    check_concurrency(file.generic_string(), parsed, graph, violations);
    finalize_lock_order(graph, violations);
    check_fleet_growth(file.generic_string(), parsed, violations);

    // A fixture that expects nothing tests nothing: a renamed rule or a
    // mangled annotation must fail here, not silently pass.
    if (parsed.expects.empty()) {
      std::printf("FAIL %s: fixture declares no ctlint:expect annotations\n",
                  file.generic_string().c_str());
      ++failures;
    }

    std::multiset<std::pair<std::size_t, std::string>> expected, actual;
    for (const auto& e : parsed.expects) {
      if (!kRuleNames.count(e.rule)) {
        std::printf("FAIL %s:%zu unknown rule in expect: %s\n",
                    file.generic_string().c_str(), e.line, e.rule.c_str());
        ++failures;
        continue;
      }
      expected.insert({e.line, e.rule});
    }
    for (const auto& v : violations) actual.insert({v.line, v.rule});
    checked += expected.size();

    for (const auto& e : expected) {
      if (!actual.count(e)) {
        std::printf("FAIL %s:%zu expected [%s] did not fire\n",
                    file.generic_string().c_str(), e.first, e.second.c_str());
        ++failures;
      }
    }
    for (const auto& a : actual) {
      if (!expected.count(a)) {
        std::printf("FAIL %s:%zu unexpected [%s]\n",
                    file.generic_string().c_str(), a.first, a.second.c_str());
        ++failures;
      }
    }
  }
  std::printf("ctlint self-test: %zu fixture file(s), %zu expectation(s), "
              "%d failure(s)\n",
              files.size(), checked, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string baseline;
  std::string self_test_dir;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test_dir = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : kRuleNames) std::printf("%s\n", r.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: ctlint [--baseline FILE] [--json] "
                  "[--self-test DIR-OR-FILE] PATH...\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ctlint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (!self_test_dir.empty()) return run_self_test(self_test_dir);
  if (roots.empty()) {
    std::fprintf(stderr, "ctlint: no paths given (try --help)\n");
    return 2;
  }
  return run_lint(roots, baseline, json);
}
