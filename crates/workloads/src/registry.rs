//! The Table II workload registry: six LC services and twelve BE
//! applications.

use tacker_sim::Device;

use crate::app::{BeApp, LcService};
use crate::dnn::training::{training_be_app, TRAINING_MODELS};
use crate::dnn::DnnModel;
use crate::parboil::Benchmark;

/// All twelve BE applications of Table II: eight Parboil benchmarks plus
/// four DNN training tasks.
pub fn be_apps() -> Vec<BeApp> {
    let mut apps: Vec<BeApp> = Benchmark::BE_APPS
        .iter()
        .map(|b| BeApp::new(b.name(), b.intensity(), b.task()))
        .collect();
    apps.extend(TRAINING_MODELS.iter().map(|&m| training_be_app(m)));
    apps
}

/// Looks up a BE application by its paper name (e.g. `"sgemm"`, `"Res-T"`).
pub fn be_app(name: &str) -> Option<BeApp> {
    be_apps().into_iter().find(|a| a.name() == name)
}

/// The six LC services at their Table II batch sizes, compiled for the
/// given device.
pub fn lc_services(device: &Device) -> Vec<LcService> {
    DnnModel::ALL.iter().map(|m| m.lc_service(device)).collect()
}

/// Looks up an LC service by model name.
pub fn lc_service(name: &str, device: &Device) -> Option<LcService> {
    DnnModel::ALL
        .iter()
        .find(|m| m.name() == name)
        .map(|m| m.lc_service(device))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Intensity;

    #[test]
    fn twelve_be_apps_with_paper_names() {
        let apps = be_apps();
        assert_eq!(apps.len(), 12);
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        for expected in [
            "mriq", "fft", "mrif", "cutcp", "cp", "sgemm", "lbm", "tpacf", "Res-T", "VGG-T",
            "Incep-T", "Dense-T",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // 5 compute-intensive, 7 memory-intensive (3 Parboil + 4 training).
        let compute = apps
            .iter()
            .filter(|a| a.intensity() == Intensity::Compute)
            .count();
        assert_eq!(compute, 5);
    }

    #[test]
    fn be_app_lookup() {
        assert!(be_app("sgemm").is_some());
        assert!(be_app("Dense-T").is_some());
        assert!(be_app("nope").is_none());
    }
}
