"""Image substrate: containers, filtering, pyramids and synthetic textures."""

from .image import GrayImage, box_sum, circular_mask, integral_image, within_border
from .filters import box_blur, gaussian_blur, gaussian_kernel_1d, gaussian_kernel_2d, sobel_gradients
from .scratch import edge_pad_into, workspace_array, workspace_grid
from .pyramid import (
    ImagePyramid,
    PyramidLevel,
    minimum_level_size,
    nearest_neighbor_resize,
    pyramid_level_shapes,
    pyramid_pixel_ratio,
    resize_dimensions,
    validate_pyramid_base,
)
from .synthetic import (
    add_gaussian_noise,
    checkerboard,
    isolated_corner,
    random_blocks,
    rotate_image,
    shift_image,
    textured_noise,
)

__all__ = [
    "GrayImage",
    "circular_mask",
    "integral_image",
    "box_sum",
    "within_border",
    "gaussian_blur",
    "box_blur",
    "gaussian_kernel_1d",
    "gaussian_kernel_2d",
    "sobel_gradients",
    "edge_pad_into",
    "workspace_array",
    "workspace_grid",
    "ImagePyramid",
    "PyramidLevel",
    "minimum_level_size",
    "nearest_neighbor_resize",
    "pyramid_level_shapes",
    "pyramid_pixel_ratio",
    "resize_dimensions",
    "validate_pyramid_base",
    "checkerboard",
    "random_blocks",
    "textured_noise",
    "isolated_corner",
    "add_gaussian_noise",
    "shift_image",
    "rotate_image",
]
