// The RDF graph G_R = (V_R, E_R) of Section II-A: vertices are all subjects
// and objects, directed labeled edges are the triples. Partitioners' combine
// functions (Section II-C) need fast per-vertex out/in edge access, so the
// graph keeps CSR-style adjacency over the triple array. The statistics
// layer reads |tp| and B(tp, v) from one lazily built dataset-wide index
// (Index()).

#ifndef PARQO_RDF_GRAPH_H_
#define PARQO_RDF_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "storage/dataset_index.h"

namespace parqo {

/// Index of a triple within RdfGraph::triples().
using TripleIdx = std::uint32_t;

class RdfGraph {
 public:
  /// Takes ownership of the dictionary and triple set; duplicate triples are
  /// removed (RDF datasets are sets).
  RdfGraph(Dictionary dict, std::vector<Triple> triples);

  RdfGraph(const RdfGraph&) = delete;
  RdfGraph& operator=(const RdfGraph&) = delete;
  RdfGraph(RdfGraph&&) = default;
  RdfGraph& operator=(RdfGraph&&) = default;

  const Dictionary& dict() const { return dict_; }
  Dictionary& mutable_dict() { return dict_; }
  const std::vector<Triple>& triples() const { return triples_; }
  std::size_t NumTriples() const { return triples_.size(); }

  /// All vertex ids (terms occurring in subject or object position).
  const std::vector<TermId>& vertices() const { return vertices_; }

  /// Triples whose subject is v.
  std::span<const TripleIdx> OutEdges(TermId v) const {
    return Slice(out_offsets_, out_index_, v);
  }
  /// Triples whose object is v.
  std::span<const TripleIdx> InEdges(TermId v) const {
    return Slice(in_offsets_, in_index_, v);
  }

  bool IsVertex(TermId v) const {
    return v < out_offsets_.size() - 1 &&
           (OutDegree(v) > 0 || InDegree(v) > 0);
  }
  std::size_t OutDegree(TermId v) const { return OutEdges(v).size(); }
  std::size_t InDegree(TermId v) const { return InEdges(v).size(); }

  /// The dataset-wide statistics index (aggregated counts only) and the
  /// only place one is built: node stores keep permutations alone. Built
  /// lazily on first use — graphs that never consult statistics never
  /// pay for it — and cached for the graph's lifetime. Thread-safe; the
  /// returned reference is valid as long as the graph lives.
  const DatasetIndex& Index() const {
    std::call_once(*index_once_,
                   [&] { index_ = std::make_unique<DatasetIndex>(triples_); });
    return *index_;
  }

 private:
  std::span<const TripleIdx> Slice(const std::vector<std::uint32_t>& offsets,
                                   const std::vector<TripleIdx>& index,
                                   TermId v) const {
    if (v + 1 >= offsets.size()) return {};
    return std::span<const TripleIdx>(index.data() + offsets[v],
                                      offsets[v + 1] - offsets[v]);
  }

  Dictionary dict_;
  std::vector<Triple> triples_;
  std::vector<TermId> vertices_;
  // Heap-held so the graph stays movable (std::once_flag is not).
  mutable std::unique_ptr<std::once_flag> index_once_ =
      std::make_unique<std::once_flag>();
  mutable std::unique_ptr<DatasetIndex> index_;
  // CSR adjacency: offsets indexed directly by TermId.
  std::vector<std::uint32_t> out_offsets_;
  std::vector<TripleIdx> out_index_;
  std::vector<std::uint32_t> in_offsets_;
  std::vector<TripleIdx> in_index_;
};

}  // namespace parqo

#endif  // PARQO_RDF_GRAPH_H_
