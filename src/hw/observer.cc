#include "src/hw/observer.h"

#include "src/common/check.h"

namespace oobp {

namespace {
thread_local ObserverList t_observers;
thread_local int t_next_device = 0;
}  // namespace

bool RunIsObserved() { return !t_observers.empty(); }

const ObserverList* RegisterDevice(int* id) {
  if (!RunIsObserved()) {
    return nullptr;
  }
  *id = t_next_device++;
  return &t_observers;
}

ObserverScope::ObserverScope(DeviceObserver* observer) : observer_(observer) {
  if (observer_ != nullptr) {
    t_observers.push_back(observer_);
  }
}

ObserverScope::~ObserverScope() {
  if (observer_ != nullptr) {
    OOBP_CHECK(t_observers.back() == observer_) << "observer scopes must nest";
    t_observers.pop_back();
  }
}

}  // namespace oobp
