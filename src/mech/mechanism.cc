#include "mech/mechanism.h"

#include "common/string_util.h"
#include "exec/execution_context.h"

namespace ldp {

std::string MechanismKindName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kHi:
      return "HI";
    case MechanismKind::kHio:
      return "HIO";
    case MechanismKind::kSc:
      return "SC";
    case MechanismKind::kMg:
      return "MG";
    case MechanismKind::kQuadTree:
      return "QuadTree";
    case MechanismKind::kHaar:
      return "Haar";
    case MechanismKind::kHdg:
      return "HDG";
    case MechanismKind::kCalm:
      return "CALM";
  }
  return "?";
}

Result<MechanismKind> MechanismKindFromString(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "hi") return MechanismKind::kHi;
  if (lower == "hio") return MechanismKind::kHio;
  if (lower == "sc") return MechanismKind::kSc;
  if (lower == "mg") return MechanismKind::kMg;
  if (lower == "quadtree" || lower == "qt") return MechanismKind::kQuadTree;
  if (lower == "haar" || lower == "wavelet") return MechanismKind::kHaar;
  if (lower == "hdg") return MechanismKind::kHdg;
  if (lower == "calm") return MechanismKind::kCalm;
  return Status::InvalidArgument("unknown mechanism: " + std::string(name));
}

const ExecutionContext& Mechanism::exec() const {
  return exec_ != nullptr ? *exec_ : SerialExecutionContext();
}

void Mechanism::EnableEstimateCache(size_t max_bytes) {
  estimate_cache_ =
      max_bytes == 0 ? nullptr : std::make_unique<EstimateCache>(max_bytes);
}

Status Mechanism::EnsureReports() const {
  if (num_reports_ == 0) {
    return Status::FailedPrecondition(
        "no accepted reports: nothing to estimate from (all clients dropped "
        "out or every report was quarantined)");
  }
  return Status::OK();
}

Status StoreBackedMechanism::ValidateReport(const LdpReport& report) const {
  const size_t expected = shape_ == ReportShape::kEveryGroup
                              ? static_cast<size_t>(store_.num_groups())
                              : 1;
  if (report.entries.size() != expected) {
    return Status::InvalidArgument(
        MechanismKindName(kind()) + " report must have " +
        std::to_string(expected) + " entries, got " +
        std::to_string(report.entries.size()));
  }
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const uint32_t group = report.entries[i].group;
    if (group >= NumReportGroups()) {
      return Status::OutOfRange("bad group id " + std::to_string(group) +
                                " in " + MechanismKindName(kind()) + " report");
    }
    // Every group exactly once, in group order: a repeated group would leave
    // another group without this user's entry.
    if (shape_ == ReportShape::kEveryGroup && group != i) {
      return Status::InvalidArgument(
          MechanismKindName(kind()) + " report entry " + std::to_string(i) +
          " carries group " + std::to_string(group));
    }
  }
  return Status::OK();
}

Status StoreBackedMechanism::AddReport(const LdpReport& report,
                                       uint64_t user) {
  LDP_RETURN_NOT_OK(ValidateReport(report));
  for (const auto& entry : report.entries) {
    store_.Add(static_cast<int>(entry.group), entry.fo, user);
  }
  ++num_reports_;
  return Status::OK();
}

Status StoreBackedMechanism::Merge(Mechanism&& shard) {
  auto* other = dynamic_cast<StoreBackedMechanism*>(&shard);
  if (other == nullptr || other->kind() != kind()) {
    return Status::InvalidArgument("cannot merge a non-" +
                                   MechanismKindName(kind()) + " shard");
  }
  LDP_RETURN_NOT_OK(store_.MergeFrom(std::move(other->store_)));
  num_reports_ += other->num_reports_;
  other->num_reports_ = 0;
  return Status::OK();
}

uint64_t LdpReport::SizeWords() const {
  uint64_t words = 0;
  for (const auto& e : entries) {
    words += 1;  // group tag + OLH/GRR payload packed into one word
    if (!e.fo.bits.empty()) words += e.fo.bits.size();
  }
  return words;
}

namespace {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>((*in)[i])) << (8 * i);
  }
  in->remove_prefix(4);
  return true;
}

bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>((*in)[i])) << (8 * i);
  }
  in->remove_prefix(8);
  return true;
}

}  // namespace

std::string LdpReport::Serialize() const {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutU32(&out, e.group);
    PutU32(&out, e.fo.seed);
    PutU32(&out, e.fo.value);
    PutU32(&out, static_cast<uint32_t>(e.fo.bits.size()));
    for (const uint64_t word : e.fo.bits) PutU64(&out, word);
  }
  return out;
}

Result<LdpReport> LdpReport::Deserialize(std::string_view bytes) {
  LdpReport report;
  uint32_t count = 0;
  if (!GetU32(&bytes, &count)) {
    return Status::ParseError("truncated LDP report header");
  }
  // Every entry encodes at least 16 bytes (four u32 fields), so a count the
  // remaining payload cannot hold is rejected before it sizes an allocation.
  if (count > (1u << 24) || count > bytes.size() / 16) {
    return Status::ParseError("implausible LDP report entry count");
  }
  report.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    uint32_t bit_words = 0;
    if (!GetU32(&bytes, &entry.group) || !GetU32(&bytes, &entry.fo.seed) ||
        !GetU32(&bytes, &entry.fo.value) || !GetU32(&bytes, &bit_words)) {
      return Status::ParseError("truncated LDP report entry");
    }
    if (static_cast<uint64_t>(bit_words) * 8 > bytes.size()) {
      return Status::ParseError("truncated LDP report bit payload");
    }
    entry.fo.bits.resize(bit_words);
    for (uint32_t w = 0; w < bit_words; ++w) {
      (void)GetU64(&bytes, &entry.fo.bits[w]);
    }
    report.entries.push_back(std::move(entry));
  }
  if (!bytes.empty()) {
    return Status::ParseError("trailing bytes after LDP report");
  }
  return report;
}

bool operator==(const LdpReport& a, const LdpReport& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const auto& x = a.entries[i];
    const auto& y = b.entries[i];
    if (x.group != y.group || x.fo.seed != y.fo.seed ||
        x.fo.value != y.fo.value || x.fo.bits != y.fo.bits) {
      return false;
    }
  }
  return true;
}

std::vector<std::unique_ptr<DimHierarchy>> BuildHierarchies(
    const Schema& schema, uint32_t fanout) {
  std::vector<std::unique_ptr<DimHierarchy>> out;
  for (const int attr : schema.sensitive_dims()) {
    const Attribute& a = schema.attribute(attr);
    if (a.kind == AttributeKind::kSensitiveOrdinal) {
      out.push_back(DimHierarchy::MakeOrdinal(a.domain_size, fanout));
    } else {
      out.push_back(DimHierarchy::MakeCategorical(a.domain_size));
    }
  }
  return out;
}

Status ValidateSensitiveValues(const Schema& schema,
                               std::span<const uint32_t> values) {
  const auto& dims = schema.sensitive_dims();
  if (values.size() != dims.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(dims.size()) +
        " sensitive values, got " + std::to_string(values.size()));
  }
  for (size_t i = 0; i < dims.size(); ++i) {
    if (values[i] >= schema.attribute(dims[i]).domain_size) {
      return Status::OutOfRange("sensitive value out of domain for '" +
                                schema.attribute(dims[i]).name + "'");
    }
  }
  return Status::OK();
}

}  // namespace ldp
