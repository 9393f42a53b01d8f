#ifndef VERITAS_DATA_MODEL_H_
#define VERITAS_DATA_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/status.h"

namespace veritas {

using SourceId = uint32_t;
using DocumentId = uint32_t;
using ClaimId = uint32_t;

/// Stance of a document towards a claim (§3.1 "Handling opposing stances").
/// A refuting document connects to the opposing variable ¬c of the claim.
enum class Stance : uint8_t { kSupport = 0, kRefute = 1 };

/// A data source (website, forum user, news provider). Carries the
/// source-feature vector f^S of §3.1 (trustworthiness indicators).
struct Source {
  std::string name;
  std::vector<double> features;
};

template <typename V, typename S>
FieldsOf<S, Source> VisitFields(V& v, S& source) {
  v("name", source.name);
  v("features", source.features);
}

/// A document provided by a source. Carries the document-feature vector f^D
/// of §3.1 (language-quality indicators).
struct Document {
  SourceId source = 0;
  std::vector<double> features;
};

template <typename V, typename S>
FieldsOf<S, Document> VisitFields(V& v, S& document) {
  v("source", document.source);
  v("features", document.features);
}

/// A candidate fact. The representation of the claim text is orthogonal to
/// the model (§2.1); only its identity and relations matter here.
struct Claim {
  std::string text;
};

/// A CRF clique π = (claim, document, source) (§3.1). The source is the
/// document's source; it is denormalized here because the inference inner
/// loops touch cliques far more often than documents.
struct Clique {
  ClaimId claim = 0;
  DocumentId document = 0;
  SourceId source = 0;
  Stance stance = Stance::kSupport;
};

/// Static structure of a probabilistic fact database Q = <S, D, C, P>: the
/// sources, documents, claims, their features, and the clique relations.
/// The probabilistic part P (and the user-label state) lives in BeliefState,
/// so that hypothetical states (the Q+ / Q- of §4.2) never copy structure.
class FactDatabase {
 public:
  SourceId AddSource(Source source);
  DocumentId AddDocument(Document document);
  ClaimId AddClaim(Claim claim);

  /// Links a document and a claim with a stance, creating a clique. Errors
  /// when either id is out of range.
  Status AddMention(DocumentId document, ClaimId claim, Stance stance);

  size_t num_sources() const { return sources_.size(); }
  size_t num_documents() const { return documents_.size(); }
  size_t num_claims() const { return claims_.size(); }
  size_t num_cliques() const { return cliques_.size(); }

  const Source& source(SourceId id) const { return sources_[id]; }
  const Document& document(DocumentId id) const { return documents_[id]; }
  const Claim& claim(ClaimId id) const { return claims_[id]; }
  const Clique& clique(size_t index) const { return cliques_[index]; }
  const std::vector<Clique>& cliques() const { return cliques_; }

  /// Indices into cliques() that involve the given claim.
  const std::vector<size_t>& ClaimCliques(ClaimId id) const {
    return claim_cliques_[id];
  }

  /// Distinct claims a source is connected to (the set C_s of Eq. 17).
  const std::vector<ClaimId>& SourceClaims(SourceId id) const {
    return source_claims_[id];
  }

  /// Ground-truth credibility labels, available for emulated corpora and
  /// used only by user simulation and evaluation metrics (never inference).
  void SetGroundTruth(ClaimId id, bool credible);
  bool has_ground_truth(ClaimId id) const { return truth_known_[id] != 0; }
  bool ground_truth(ClaimId id) const { return truth_value_[id] != 0; }

  /// Checks referential integrity and uniform feature dimensionality.
  Status Validate() const;

  /// Number of source features (mS); 0 when there are no sources.
  size_t source_feature_dim() const;
  /// Number of document features (mD); 0 when there are no documents.
  size_t document_feature_dim() const;

 private:
  std::vector<Source> sources_;
  std::vector<Document> documents_;
  std::vector<Claim> claims_;
  std::vector<Clique> cliques_;
  std::vector<std::vector<size_t>> claim_cliques_;
  std::vector<std::vector<ClaimId>> source_claims_;
  std::vector<uint8_t> truth_known_;
  std::vector<uint8_t> truth_value_;
};

/// Per-claim credibility label as set by user input.
enum class ClaimLabel : int8_t {
  kUnlabeled = -1,
  kNonCredible = 0,
  kCredible = 1,
};

/// The probabilistic state P of a fact database plus the user-label sets
/// C^L / C^U of §3.2. Cheap to copy (two flat vectors), which is what makes
/// the simulated Q+ / Q- inference of the guidance strategies affordable.
class BeliefState {
 public:
  BeliefState() = default;

  /// Initializes all claims as unlabeled with probability `prior`
  /// (0.5 by default, the maximum-entropy prior of §8.1).
  explicit BeliefState(size_t num_claims, double prior = 0.5);

  size_t num_claims() const { return probs_.size(); }

  double prob(ClaimId id) const { return probs_[id]; }
  void set_prob(ClaimId id, double p) { probs_[id] = p; }
  const std::vector<double>& probs() const { return probs_; }

  /// Appends a new unlabeled claim (streaming arrivals, §7).
  void Append(double prior = 0.5) {
    probs_.push_back(prior);
    labels_.push_back(ClaimLabel::kUnlabeled);
  }

  ClaimLabel label(ClaimId id) const { return labels_[id]; }
  bool IsLabeled(ClaimId id) const { return labels_[id] != ClaimLabel::kUnlabeled; }

  /// Records user input for a claim: fixes the probability to 0/1 and moves
  /// the claim from C^U to C^L.
  void SetLabel(ClaimId id, bool credible);

  /// Removes a label (used by the leave-one-out confirmation check, §5.2,
  /// and the k-fold precision estimate, §6.1).
  void ClearLabel(ClaimId id, double restored_prob = 0.5);

  size_t labeled_count() const { return labeled_count_; }
  size_t unlabeled_count() const { return probs_.size() - labeled_count_; }

  /// Labeled claim ids (C^L), in no particular order.
  std::vector<ClaimId> LabeledClaims() const;
  /// Unlabeled claim ids (C^U), in id order.
  std::vector<ClaimId> UnlabeledClaims() const;

  /// Fraction of labeled claims (user effort E of §8.1).
  double Effort() const;

 private:
  std::vector<double> probs_;
  std::vector<ClaimLabel> labels_;
  size_t labeled_count_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_DATA_MODEL_H_
