#include "flow/artifact_store.hpp"

namespace pdr::flow {

std::uint64_t ArtifactStore::runs(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(stage);
  return it == stats_.end() ? 0 : it->second.runs;
}

std::uint64_t ArtifactStore::hits(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(stage);
  return it == stats_.end() ? 0 : it->second.hits;
}

std::size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ArtifactStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_.clear();
}

std::shared_ptr<ArtifactStore> default_store() {
  static std::shared_ptr<ArtifactStore> store = std::make_shared<ArtifactStore>();
  return store;
}

}  // namespace pdr::flow
