from matrixprofile_ray.pipelines.flagship import flagship, series_all_tiers

__all__ = ["flagship", "series_all_tiers"]
