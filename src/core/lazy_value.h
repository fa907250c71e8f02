#ifndef EVIDENT_CORE_LAZY_VALUE_H_
#define EVIDENT_CORE_LAZY_VALUE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

namespace evident {

/// \brief A value built on first use through a const interface, then
/// shared read-only — the lazy caches of ExtendedRelation (column image,
/// key index) and ColumnStore (encoded keys, statistics).
///
/// Reading and building are safe from any number of threads: the first
/// GetOrBuild runs `build` under a mutex and publishes the value with a
/// release store, and every later read is one acquire load. A published
/// value never changes, so copies share it (a copied relation reuses
/// its caches). The non-const members are ordinary mutations and, like
/// any non-const call, must not race with readers of the same object.
template <typename T>
class LazyValue {
 public:
  LazyValue() = default;
  LazyValue(const LazyValue& other) { Set(other.Shared()); }
  LazyValue& operator=(const LazyValue& other) {
    if (this != &other) Set(other.Shared());
    return *this;
  }
  LazyValue(LazyValue&& other) noexcept { Set(other.Take()); }
  LazyValue& operator=(LazyValue&& other) noexcept {
    if (this != &other) Set(other.Take());
    return *this;
  }

  /// The published value, or null while unbuilt.
  const T* get() const {
    return ready_.load(std::memory_order_acquire) ? value_.get() : nullptr;
  }

  template <typename Build>
  const T& GetOrBuild(Build&& build) const {
    if (const T* value = get()) return *value;
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_.load(std::memory_order_relaxed)) {
      value_ = std::make_shared<T>(build());
      ready_.store(true, std::memory_order_release);
    }
    return *value_;
  }

  void Set(std::shared_ptr<T> value) {
    value_ = std::move(value);
    ready_.store(value_ != nullptr, std::memory_order_release);
  }
  void Reset() { Set(nullptr); }

  /// The value for in-place mutation by its sole owner: default-built
  /// when absent, cloned first when a copy still shares it.
  T& Mutable() {
    if (value_ == nullptr) {
      Set(std::make_shared<T>());
    } else if (value_.use_count() > 1) {
      Set(std::make_shared<T>(*value_));
    }
    return *value_;
  }

 private:
  std::shared_ptr<T> Shared() const {
    if (get() != nullptr) return value_;
    std::lock_guard<std::mutex> lock(mu_);
    return value_;
  }

  std::shared_ptr<T> Take() {
    ready_.store(false, std::memory_order_relaxed);
    return std::move(value_);
  }

  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable std::shared_ptr<T> value_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_LAZY_VALUE_H_
