#include "query/match.h"

#include <numeric>
#include <span>
#include <unordered_map>

namespace parqo {
namespace {

// A pattern position: a constant, or a variable when var is set.
struct Slot {
  TermId constant = kInvalidTermId;
  VarId var = kInvalidVarId;
};

struct CompiledPattern {
  Slot s, p, o;
};

// Backtracking state of one MatchBgp call.
class Matcher {
 public:
  Matcher(const JoinGraph& jg, const RdfGraph& graph, std::size_t limit)
      : graph_(graph), limit_(limit) {
    const Dictionary& dict = graph.dict();
    for (int i = 0; i < jg.num_tps(); ++i) {
      const TriplePattern& tp = jg.pattern(i);
      auto slot = [&](const PatternTerm& t) {
        Slot s;
        if (t.IsVar()) {
          s.var = jg.FindVar(t.var);
        } else {
          s.constant = dict.Lookup(t.term);
          if (s.constant == kInvalidTermId) unmatchable_ = true;
        }
        return s;
      };
      pats_.push_back(CompiledPattern{slot(tp.s), slot(tp.p), slot(tp.o)});
    }
    binding_.assign(jg.num_vars(), kInvalidTermId);
    matched_.resize(pats_.size());
    done_.assign(pats_.size(), false);
  }

  std::vector<BgpMatch> Run() {
    if (!unmatchable_) Recurse(0);
    return std::move(results_);
  }

 private:
  TermId Value(const Slot& s) const {
    return s.var == kInvalidVarId ? s.constant : binding_[s.var];
  }

  // The triples that can match `pat` under the current bindings, from the
  // narrowest index its bound positions allow.
  std::span<const TripleIdx> Candidates(const CompiledPattern& pat) {
    const TermId s = Value(pat.s), p = Value(pat.p), o = Value(pat.o);
    if (s != kInvalidTermId && o != kInvalidTermId) {
      std::span<const TripleIdx> out = graph_.OutEdges(s);
      std::span<const TripleIdx> in = graph_.InEdges(o);
      return out.size() <= in.size() ? out : in;
    }
    if (s != kInvalidTermId) return graph_.OutEdges(s);
    if (o != kInvalidTermId) return graph_.InEdges(o);
    if (p != kInvalidTermId) return WithPredicate(p);
    if (all_.size() != graph_.NumTriples()) {
      all_.resize(graph_.NumTriples());
      std::iota(all_.begin(), all_.end(), TripleIdx{0});
    }
    return all_;
  }

  // Triples with predicate `p`, collected on first use.
  const std::vector<TripleIdx>& WithPredicate(TermId p) {
    auto [it, fresh] = by_predicate_.try_emplace(p);
    if (fresh) {
      const std::vector<Triple>& triples = graph_.triples();
      for (TripleIdx i = 0; i < triples.size(); ++i) {
        if (triples[i].p == p) it->second.push_back(i);
      }
    }
    return it->second;
  }

  // Extends the current bindings by the remaining patterns, the one with
  // the fewest candidates first. Returns false once `limit_` is reached.
  bool Recurse(std::size_t depth) {
    if (depth == pats_.size()) {
      results_.push_back(BgpMatch{binding_, matched_});
      return limit_ == 0 || results_.size() < limit_;
    }
    std::size_t best = pats_.size();
    std::span<const TripleIdx> candidates;
    for (std::size_t i = 0; i < pats_.size(); ++i) {
      if (done_[i]) continue;
      std::span<const TripleIdx> c = Candidates(pats_[i]);
      if (best == pats_.size() || c.size() < candidates.size()) {
        best = i;
        candidates = c;
      }
    }
    const CompiledPattern& pat = pats_[best];
    done_[best] = true;
    bool keep_going = true;
    for (TripleIdx ti : candidates) {
      const Triple& t = graph_.triples()[ti];
      // Bind fresh variables left to right; a variable repeated within
      // the pattern (?x p ?x) is bound by its first slot and checked by
      // the next.
      VarId fresh[3];
      int num_fresh = 0;
      bool ok = true;
      for (auto [slot, value] : {std::pair{&pat.s, t.s}, std::pair{&pat.p, t.p},
                                 std::pair{&pat.o, t.o}}) {
        const TermId cur = Value(*slot);
        if (cur == kInvalidTermId) {
          binding_[slot->var] = value;
          fresh[num_fresh++] = slot->var;
        } else if (cur != value) {
          ok = false;
          break;
        }
      }
      if (ok) {
        matched_[best] = t;
        keep_going = Recurse(depth + 1);
      }
      for (int k = 0; k < num_fresh; ++k) binding_[fresh[k]] = kInvalidTermId;
      if (!keep_going) break;
    }
    done_[best] = false;
    return keep_going;
  }

  const RdfGraph& graph_;
  const std::size_t limit_;
  std::vector<CompiledPattern> pats_;
  bool unmatchable_ = false;
  std::vector<TermId> binding_;
  std::vector<Triple> matched_;
  std::vector<bool> done_;
  std::unordered_map<TermId, std::vector<TripleIdx>> by_predicate_;
  std::vector<TripleIdx> all_;
  std::vector<BgpMatch> results_;
};

}  // namespace

std::vector<BgpMatch> MatchBgp(const JoinGraph& jg, const RdfGraph& graph,
                               std::size_t limit) {
  return Matcher(jg, graph, limit).Run();
}

}  // namespace parqo
